package query

import (
	"math/rand"
	"testing"
	"testing/quick"

	"jaws/internal/field"
	"jaws/internal/geom"
	"jaws/internal/store"
)

func testSpace() geom.Space { return geom.Space{GridSide: 128, AtomSide: 32} }

func mkQuery(id ID, step int, pts []geom.Position, k field.Kernel) *Query {
	return &Query{ID: id, Step: step, Points: pts, Kernel: k}
}

func TestValidate(t *testing.T) {
	if err := mkQuery(1, 0, nil, field.KernelNone).Validate(); err == nil {
		t.Fatal("empty query accepted")
	}
	if err := mkQuery(1, -1, []geom.Position{{}}, field.KernelNone).Validate(); err == nil {
		t.Fatal("negative step accepted")
	}
	if err := mkQuery(1, 0, []geom.Position{{}}, field.KernelNone).Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
}

func TestPreProcessGroupsByAtom(t *testing.T) {
	s := testSpace()
	// Two positions in atom (0,0,0), one in atom (1,0,0).
	atomLen := float64(s.AtomSide) * s.VoxelSize()
	pts := []geom.Position{
		{X: 0.2 * atomLen, Y: 0.2 * atomLen, Z: 0.2 * atomLen},
		{X: 0.8 * atomLen, Y: 0.8 * atomLen, Z: 0.8 * atomLen},
		{X: 1.5 * atomLen, Y: 0.5 * atomLen, Z: 0.5 * atomLen},
	}
	q := mkQuery(1, 2, pts, field.KernelNone)
	sqs, err := PreProcess(q, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(sqs) != 2 {
		t.Fatalf("got %d sub-queries, want 2", len(sqs))
	}
	if len(sqs[0].Index)+len(sqs[1].Index) != 3 {
		t.Fatal("positions lost or duplicated in split")
	}
	for _, sq := range sqs {
		if sq.Atom.Step != 2 {
			t.Fatalf("sub-query step %d, want 2", sq.Atom.Step)
		}
		for _, i := range sq.Index {
			p := pts[i]
			if got := (store.AtomID{Step: 2, Code: s.AtomOf(p).Code()}); got != sq.Atom {
				t.Fatalf("position %v grouped under wrong atom %v", p, sq.Atom)
			}
		}
	}
}

func TestPreProcessMortonOrderOfAtoms(t *testing.T) {
	s := testSpace()
	rng := rand.New(rand.NewSource(5))
	pts := make([]geom.Position, 200)
	for i := range pts {
		pts[i] = geom.Position{
			X: rng.Float64() * geom.DomainSide,
			Y: rng.Float64() * geom.DomainSide,
			Z: rng.Float64() * geom.DomainSide,
		}
	}
	sqs, err := PreProcess(mkQuery(1, 0, pts, field.KernelNone), s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sqs); i++ {
		if sqs[i-1].Atom.Key() >= sqs[i].Atom.Key() {
			t.Fatal("sub-queries not in Morton order")
		}
	}
}

func TestPreProcessSortsPointsWithinAtom(t *testing.T) {
	s := testSpace()
	atomLen := float64(s.AtomSide) * s.VoxelSize()
	// Several positions inside atom (0,0,0) in reverse spatial order.
	var pts []geom.Position
	for i := 9; i >= 0; i-- {
		v := (float64(i) + 0.5) / 10 * atomLen
		pts = append(pts, geom.Position{X: v, Y: v, Z: v})
	}
	sqs, _ := PreProcess(mkQuery(1, 0, pts, field.KernelNone), s)
	if len(sqs) != 1 {
		t.Fatalf("want single sub-query, got %d", len(sqs))
	}
	got := sqs[0].Index
	for i := 1; i < len(got); i++ {
		if pts[got[i]].X < pts[got[i-1]].X {
			t.Fatal("points within atom not Morton-sorted (diagonal should be ascending)")
		}
	}
}

func TestPreProcessFootprint(t *testing.T) {
	s := testSpace()
	atomLen := float64(s.AtomSide) * s.VoxelSize()
	// Position near the low-x face of atom (1,1,1) with a wide kernel:
	// footprint must include atom (0,1,1) but never the primary atom.
	p := geom.Position{X: atomLen + 0.5*s.VoxelSize(), Y: 1.5 * atomLen, Z: 1.5 * atomLen}
	sqs, _ := PreProcess(mkQuery(1, 0, []geom.Position{p}, field.KernelLag8), s)
	if len(sqs) != 1 {
		t.Fatalf("want 1 sub-query, got %d", len(sqs))
	}
	sq := sqs[0]
	wantNbr := store.AtomID{Step: 0, Code: geom.AtomCoord{I: 0, J: 1, K: 1}.Code()}
	found := false
	for _, f := range sq.Footprint {
		if f == sq.Atom {
			t.Fatal("footprint contains the primary atom")
		}
		if f == wantNbr {
			found = true
		}
	}
	if !found {
		t.Fatalf("footprint %v missing neighbour %v", sq.Footprint, wantNbr)
	}
}

func TestPreProcessNoFootprintForPointKernel(t *testing.T) {
	s := testSpace()
	sqs, _ := PreProcess(mkQuery(1, 0, []geom.Position{{X: 1, Y: 1, Z: 1}}, field.KernelNone), s)
	if len(sqs[0].Footprint) != 0 {
		t.Fatalf("zero-radius kernel has footprint %v", sqs[0].Footprint)
	}
}

func TestPreProcessInvalid(t *testing.T) {
	if _, err := PreProcess(mkQuery(1, 0, nil, field.KernelNone), testSpace()); err == nil {
		t.Fatal("invalid query pre-processed")
	}
}

// Property: pre-processing partitions the positions — every input position
// appears in exactly one sub-query, and the total count is preserved.
func TestPreProcessPartitionProperty(t *testing.T) {
	s := testSpace()
	f := func(raw []float64) bool {
		if len(raw) < 3 {
			return true
		}
		var pts []geom.Position
		for i := 0; i+2 < len(raw); i += 3 {
			pts = append(pts, geom.Wrap(geom.Position{X: raw[i], Y: raw[i+1], Z: raw[i+2]}))
		}
		q := mkQuery(7, 1, pts, field.KernelLag4)
		sqs, err := PreProcess(q, s)
		if err != nil {
			return false
		}
		total := 0
		for _, sq := range sqs {
			total += len(sq.Index)
		}
		return total == len(pts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// shares reports whether queries a and b exhibit data sharing:
// A(a) ∩ A(b) ≠ ∅.
func shares(a, b *Query, space geom.Space) bool {
	aa := Atoms(a, space)
	for id := range Atoms(b, space) {
		if aa[id] {
			return true
		}
	}
	return false
}

func TestAtomsAndShares(t *testing.T) {
	s := testSpace()
	atomLen := float64(s.AtomSide) * s.VoxelSize()
	inAtom := func(i, j, k uint32) geom.Position {
		return geom.Position{
			X: (float64(i) + 0.5) * atomLen,
			Y: (float64(j) + 0.5) * atomLen,
			Z: (float64(k) + 0.5) * atomLen,
		}
	}
	qa := mkQuery(1, 0, []geom.Position{inAtom(0, 0, 0), inAtom(1, 1, 1)}, field.KernelNone)
	qb := mkQuery(2, 0, []geom.Position{inAtom(1, 1, 1)}, field.KernelNone)
	qc := mkQuery(3, 0, []geom.Position{inAtom(2, 2, 2)}, field.KernelNone)
	qd := mkQuery(4, 1, []geom.Position{inAtom(0, 0, 0)}, field.KernelNone) // other step

	if got := Atoms(qa, s); len(got) != 2 {
		t.Fatalf("Atoms(qa) = %v, want 2 atoms", got)
	}
	if !shares(qa, qb, s) {
		t.Fatal("qa and qb share atom (1,1,1) but Shares = false")
	}
	if shares(qa, qc, s) {
		t.Fatal("qa and qc share nothing but Shares = true")
	}
	if shares(qa, qd, s) {
		t.Fatal("different time steps must not share atoms")
	}
	if !shares(qa, qa, s) {
		t.Fatal("query does not share with itself")
	}
}

// BenchmarkPreProcess splits one query of each size the benchmark traces
// carry (17 to 128 points, mean 59) and one 1 000-point bulk request:
// through the allocating wrapper, into one Partition reused as the engine
// reuses a frame's, and — the reference, not a served path: no shipped
// workload has a key too wide to pack — into one with no room for a packed
// key, which sorts with the comparator as every query did before.
func BenchmarkPreProcess(b *testing.B) {
	s := testSpace()
	rng := rand.New(rand.NewSource(9))
	for _, size := range []struct {
		name string
		n    int
	}{{"17Points", 17}, {"59Points", 59}, {"128Points", 128}, {"1kPoints", 1000}} {
		pts := make([]geom.Position, size.n)
		for i := range pts {
			pts[i] = geom.Position{
				X: rng.Float64() * geom.DomainSide,
				Y: rng.Float64() * geom.DomainSide,
				Z: rng.Float64() * geom.DomainSide,
			}
		}
		q := mkQuery(1, 0, pts, field.KernelLag4)
		var p Partition
		for _, bc := range []struct {
			name  string
			split func() error
		}{
			{"fresh", func() error { _, err := PreProcess(q, s); return err }},
			{"reused", func() error { _, err := p.Split(q, s); return err }},
			{"ref", func() error { _, err := p.split(q, s, 0); return err }},
		} {
			b.Run(size.name+"/"+bc.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := bc.split(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
