package query

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"jaws/internal/field"
	"jaws/internal/geom"
	"jaws/internal/morton"
	"jaws/internal/oracle/difftest"
	"jaws/internal/store"
)

// refPreProcess is the map-based PreProcess this package shipped before
// the single-sort one (a map entry and a grown slice per atom, the whole
// partition recomputed per chain step), kept as the reference the
// differential test below compares against. One thing is pinned down that
// the original left to sort.Sort: positions in the same voxel keep their
// input order. The original's insertion sort did so for up to twelve
// points per atom and left larger ties unspecified; sort.Stable extends
// the small-n order to every n, which is the order PreProcess documents.
func refPreProcess(q *Query, space geom.Space) ([]*SubQuery, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	radius := q.Kernel.StencilRadius()
	groups := make(map[store.AtomID]*SubQuery)
	for s := 0; s < q.ChainLen(); s++ {
		step := q.Step + s
		for i, p := range q.Points {
			fp := space.Footprint(p, radius)
			primary := store.AtomID{Step: step, Code: fp[0].Code()}
			sq, ok := groups[primary]
			if !ok {
				sq = &SubQuery{Query: q, Atom: primary}
				groups[primary] = sq
			}
			sq.Index = append(sq.Index, i)
			for _, ac := range fp[1:] {
				refAddFootprint(sq, store.AtomID{Step: step, Code: ac.Code()})
			}
		}
	}
	out := make([]*SubQuery, 0, len(groups))
	for _, sq := range groups {
		refSortMorton(space, q.Points, sq.Index)
		sort.Slice(sq.Footprint, func(i, j int) bool {
			return sq.Footprint[i].Key() < sq.Footprint[j].Key()
		})
		out = append(out, sq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Atom.Key() < out[j].Atom.Key() })
	return out, nil
}

func refAddFootprint(sq *SubQuery, id store.AtomID) {
	for _, existing := range sq.Footprint {
		if existing == id {
			return
		}
	}
	sq.Footprint = append(sq.Footprint, id)
}

// refSortMorton sorts idx, indices into pts, by the Morton code of their
// positions' voxels.
func refSortMorton(space geom.Space, pts []geom.Position, idx []int) {
	codes := make([]morton.Code, len(idx))
	for i, x := range idx {
		vx, vy, vz := space.VoxelOf(pts[x])
		codes[i] = morton.Encode(uint32(vx), uint32(vy), uint32(vz))
	}
	sort.Stable(&refByCode{idx: idx, codes: codes})
}

type refByCode struct {
	idx   []int
	codes []morton.Code
}

func (b *refByCode) Len() int           { return len(b.idx) }
func (b *refByCode) Less(i, j int) bool { return b.codes[i] < b.codes[j] }
func (b *refByCode) Swap(i, j int) {
	b.idx[i], b.idx[j] = b.idx[j], b.idx[i]
	b.codes[i], b.codes[j] = b.codes[j], b.codes[i]
}

// randomPoints draws n positions for a differential run: uniform ones,
// ones exactly on (or one ulp off) atom faces and the periodic seam,
// negative and beyond-2π ones, clusters inside one voxel (voxel-code
// ties) and exact duplicates (ties all the way down to the input index).
func randomPoints(rng *rand.Rand, space geom.Space, n int) []geom.Position {
	asz := float64(space.AtomSide) * space.VoxelSize()
	coord := func() float64 {
		face := float64(rng.Intn(space.AtomsPerAxis()+1)) * asz
		switch rng.Intn(12) {
		case 0:
			return face
		case 1:
			return math.Nextafter(face, math.Inf(-1))
		case 2:
			return math.Nextafter(face, math.Inf(1))
		case 3:
			return -float64(rng.Float64()) * 2 * geom.DomainSide
		case 4:
			return geom.DomainSide + float64(float64(rng.Float64())*2*geom.DomainSide)
		}
		return rng.Float64() * geom.DomainSide
	}
	pts := make([]geom.Position, 0, n)
	for len(pts) < n {
		p := geom.Position{X: coord(), Y: coord(), Z: coord()}
		pts = append(pts, p)
		switch rng.Intn(6) {
		case 0: // the same position again, later in the input
			pts = append(pts, p)
		case 1: // a run of neighbours, most of them in p's voxel
			for i := rng.Intn(20); i > 0; i-- {
				d := space.VoxelSize() * 0.3
				pts = append(pts, geom.Position{X: p.X + float64(rng.Float64()*d), Y: p.Y + float64(rng.Float64()*d), Z: p.Z + float64(rng.Float64()*d)})
			}
		}
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts[:n]
}

// shapedPoints draws n positions and, by shape, leaves them shuffled (0),
// puts them in partition order already (1),
// in reverse partition order (2), or makes them all the same position (3:
// the order rests on the input index alone).
func shapedPoints(rng *rand.Rand, space geom.Space, n, shape int) []geom.Position {
	pts := randomPoints(rng, space, n)
	switch shape {
	case 1, 2:
		q := &Query{ID: 1, Points: pts}
		sqs, err := refPreProcess(q, space)
		if err != nil {
			panic(err)
		}
		pts = pts[:0:0]
		for _, sq := range sqs {
			for _, i := range sq.Index {
				pts = append(pts, q.Points[i])
			}
		}
		if shape == 2 {
			slices.Reverse(pts)
		}
	case 3:
		for i := range pts {
			pts[i] = pts[0]
		}
	}
	return pts
}

// pointers lists the addresses of a partition's records, the form the
// reference returns.
func pointers(subs []SubQuery) []*SubQuery {
	out := make([]*SubQuery, len(subs))
	for i := range subs {
		out[i] = &subs[i]
	}
	return out
}

// checkAgainstReference fails unless got is want, the reference's split
// of q, sub-query for sub-query: atoms in the same key order, the same
// request indices in the same order (input-order ties included), the same
// sorted footprints (nil where empty), and each sub-query's slices capped
// at their length. The indices of each step must be a permutation of
// 0..n-1: every point answered once.
func checkAgainstReference(t difftest.TB, label string, q *Query, want, got []*SubQuery) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s (%v, chain %d, %d points): %d sub-queries, reference %d",
			label, q.Kernel, q.ChainLen(), len(q.Points), len(got), len(want))
	}
	n := len(q.Points)
	seen, count := make([]bool, n), 0
	for i := range want {
		g, w := got[i], want[i]
		if i > 0 && g.Atom.Step != got[i-1].Atom.Step {
			if count != n {
				t.Fatalf("%s: step %d indexes %d of %d points", label, got[i-1].Atom.Step, count, n)
			}
			clear(seen)
			count = 0
		}
		for p, x := range g.Index {
			if x < 0 || x >= n || seen[x] {
				t.Fatalf("%s sub-query %d: entry %d is index %d, out of range or repeated", label, i, p, x)
			}
			seen[x] = true
			count++
		}
		if g.Query != w.Query || g.Atom != w.Atom || !slices.Equal(g.Index, w.Index) ||
			!slices.Equal(g.Footprint, w.Footprint) || (g.Footprint == nil) != (w.Footprint == nil) {
			t.Fatalf("%s sub-query %d:\n%+v\nreference\n%+v", label, i, *g, *w)
		}
		if cap(g.Index) != len(g.Index) || cap(g.Footprint) != len(g.Footprint) {
			t.Fatalf("%s, %v: slices not capped at their length", label, g.Atom)
		}
	}
	if count != n {
		t.Fatalf("%s: last step indexes %d of %d points", label, count, n)
	}
}

var (
	refSpaces = []geom.Space{
		{GridSide: 128, AtomSide: 32},
		{GridSide: 64, AtomSide: 16},
		{GridSide: 16, AtomSide: 2},
		{GridSide: 8, AtomSide: 8},
		{GridSide: 96, AtomSide: 24}, // atom side not a power of two: voxel order does not nest in atom order
	}
	refKernels = []field.Kernel{field.KernelNone, field.KernelTrilinear, field.KernelLag4, field.KernelLag6, field.KernelLag8}
)

// replay decodes l into queries split by one to three Partitions that
// carve from one Runs, and holds every result to the reference. A header
// picks the number of partitions, which of them are Reset before each
// split (as the engine resets a frame), the space and a seed for the
// points' rng. Each query reads its partition, size (up to 32 points in
// the lower half of two bytes' range, up to 2 000 in the upper), shape,
// kernel, chain length and first step. It goes through PreProcess, which
// must leave its points alone, and through its partition with the packed
// key's full room and with one bit less than its keys need, which forces
// the comparator; then every partition's last result must still be the
// reference's, so no run carved for one overlaps another's.
func replay(t difftest.TB, l *difftest.Log) {
	ps := make([]Partition, 1+l.Intn(3))
	frames := l.Intn(8) // bit k: partition k is Reset before each split
	space := refSpaces[l.Intn(len(refSpaces))]
	rng := rand.New(rand.NewSource(int64(l.Intn(1 << 16))))
	var runs Runs
	for i := range ps {
		ps[i] = NewPartition(&runs)
	}
	type split struct {
		q    *Query
		want []*SubQuery
	}
	last := make([]split, len(ps))
	for n := 0; l.More(); n++ {
		k, size := l.Intn(len(ps)), l.Intn(1<<16)
		points := 1 + size%32
		if size >= 1<<15 {
			points = 1 + size%2000
		}
		q := &Query{ID: ID(n + 1), Points: shapedPoints(rng, space, points, l.Intn(4))}
		q.Kernel, q.DerivSteps, q.Step = refKernels[l.Intn(len(refKernels))], 1+l.Intn(8), l.Intn(5)
		if q.DerivSteps == 1 {
			q.DerivSteps = 0
		}
		want, err := refPreProcess(q, space)
		if err != nil {
			t.Fatalf("query %d: %v", n, err)
		}
		input := slices.Clone(q.Points)
		got, err := PreProcess(q, space)
		if err != nil {
			t.Fatalf("query %d: %v", n, err)
		}
		if !slices.Equal(q.Points, input) {
			t.Fatalf("query %d: PreProcess reordered the query's own points", n)
		}
		checkAgainstReference(t, fmt.Sprintf("query %d, PreProcess", n), q, want, got)

		// Reset leaves a frame's arrays in place and no reference to any
		// query in them.
		if frames>>k&1 == 1 {
			ps[k].Reset()
			for i, sq := range ps[k].subs[:cap(ps[k].subs)] {
				if sq.Query != nil {
					t.Fatalf("query %d: partition %d's record %d still points at query %d after Reset", n, k, i, sq.Query.ID)
				}
			}
		}
		_, need := layoutFor(space, len(q.Points))
		if need > packedKeyBits {
			t.Fatalf("query %d needs %d key bits", n, need)
		}
		for _, room := range []int{need - 1, packedKeyBits} {
			subs, err := ps[k].split(q, space, room)
			if err != nil {
				t.Fatalf("query %d: %v", n, err)
			}
			checkAgainstReference(t, fmt.Sprintf("query %d, partition %d, %d bits of room for %d", n, k, room, need), q, want, pointers(subs))
		}
		last[k] = split{q, want}
		for j, s := range last {
			if s.q != nil && j != k {
				checkAgainstReference(t, fmt.Sprintf("partition %d's query %d after query %d", j, s.q.ID-1, n), s.q, s.want, pointers(ps[j].subs))
			}
		}
	}
}

// PreProcess and one Partition must return what the reference returns —
// for every kernel radius, plain and chained, on spaces whose atoms are
// wider and narrower than the stencil — on short random logs of one
// partition.
func TestPreProcessMatchesReference(t *testing.T) {
	difftest.Seeds(t, difftest.Gen{First: 1, N: 80, Head: []byte{0}, Min: 20, Span: 50}, replay)
}

// The packed key orders exactly as the three-field key does, at the widths
// the layout gives it and at the limit: the paper's space with a 4 M-point
// query fills all 64 bits, one point more takes the comparator.
func TestPackedKeyOrder(t *testing.T) {
	if _, need := layoutFor(geom.Space{GridSide: 1024, AtomSide: 64}, 1<<22); need != packedKeyBits {
		t.Fatalf("paper space, 4 Mi points: %d key bits, want %d", need, packedKeyBits)
	}
	if _, need := layoutFor(geom.Space{GridSide: 1024, AtomSide: 64}, 1<<22+1); need != packedKeyBits+1 {
		t.Fatalf("paper space, 4 Mi + 1 points: %d key bits, want %d", need, packedKeyBits+1)
	}
	rng := rand.New(rand.NewSource(23))
	for _, tc := range []struct {
		space geom.Space
		n     int
	}{
		{geom.Space{GridSide: 1024, AtomSide: 64}, 1 << 22}, {geom.Space{GridSide: 256, AtomSide: 32}, 128},
		{geom.Space{GridSide: 96, AtomSide: 24}, 1000}, {geom.Space{GridSide: 8, AtomSide: 8}, 1},
	} {
		l, _ := layoutFor(tc.space, tc.n)
		draw := func() pointKey {
			vx, vy, vz := rng.Intn(tc.space.GridSide), rng.Intn(tc.space.GridSide), rng.Intn(tc.space.GridSide)
			if rng.Intn(2) == 0 { // the extremes: every bit of a field set
				vx, vy, vz = tc.space.GridSide-1, tc.space.GridSide-1, tc.space.GridSide-1
			}
			k := pointKey{
				atom:  morton.Encode(uint32(vx/tc.space.AtomSide), uint32(vy/tc.space.AtomSide), uint32(vz/tc.space.AtomSide)),
				voxel: morton.Encode(uint32(vx), uint32(vy), uint32(vz)),
				idx:   rng.Intn(tc.n),
			}
			if rng.Intn(4) == 0 {
				k.idx = tc.n - 1
			}
			return k
		}
		for i := 0; i < 5000; i++ {
			a, b := draw(), draw()
			if l.unpack(l.pack(a)) != a {
				t.Fatalf("%+v n=%d: %+v packs to %#x, unpacks to %+v", tc.space, tc.n, a, l.pack(a), l.unpack(l.pack(a)))
			}
			if got, want := cmp.Compare(l.pack(a), l.pack(b)), comparePointKeys(a, b); got != want {
				t.Fatalf("%+v n=%d: packed order of %+v, %+v is %d, key order %d", tc.space, tc.n, a, b, got, want)
			}
		}
	}
}

// sortPacked orders distinct keys as slices.Sort does, on both sides of
// the insertion cut-off, for keys that share their top bits (a clustered
// query) and keys that do not.
func TestSortPackedMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{0, 1, 2, 17, 59, insertionRun, insertionRun + 1} {
		for _, width := range []uint{16, 24, 40, 64} {
			for trial := 0; trial < 20; trial++ {
				seen := make(map[uint64]bool, n)
				keys := make([]uint64, 0, n)
				mask := uint64(1)<<width - 1 // all ones at 64
				prefix := rng.Uint64() &^ mask
				for len(keys) < n {
					if k := prefix | rng.Uint64()&mask; !seen[k] {
						seen[k] = true
						keys = append(keys, k)
					}
				}
				want := slices.Clone(keys)
				slices.Sort(want)
				sortPacked(keys)
				if !slices.Equal(keys, want) {
					t.Fatalf("%d keys of %d varying bits: order differs from slices.Sort", n, width)
				}
			}
		}
	}
}

// Partitions refilled query after query must return what a fresh one
// returns every time: three partitions carve from one Runs, their splits
// interleaved, on longer random logs.
func TestPartitionReuseMatchesReference(t *testing.T) {
	difftest.Seeds(t, difftest.Gen{First: 1, N: 10, Head: []byte{2}, Min: 250, Span: 300}, replay)
}

// FuzzPartitionReuse replays fuzzed logs through the same decoder. Each
// seed runs two or three partitions, each serving three queries in a row
// while the partitions interleave, so that it regrows and shrinks: a
// query is seven bytes, partition, size (two bytes: 0x8000 + n − 1 for
// n > 32 points), shape, kernel, chain, step.
func FuzzPartitionReuse(f *testing.F) {
	// 128/32 space: 2 000 → 1 → 8 points.
	f.Add([]byte{1, 0, 1, 0, 1,
		0, 0x87, 0xcf, 0, 2, 0, 0, 1, 0x87, 0xcf, 0, 2, 0, 0,
		0, 0, 0, 0, 2, 0, 0, 1, 0, 0, 0, 2, 0, 0,
		0, 0, 7, 0, 2, 0, 0, 1, 0, 7, 0, 2, 0, 0})
	// 16/2 space: 3 → 1 501 (reversed) → 2 points, a three-step chain.
	f.Add([]byte{1, 0, 2, 0, 2,
		0, 0, 2, 0, 3, 2, 1, 1, 0, 2, 0, 3, 2, 1,
		0, 0x85, 0xdc, 2, 3, 2, 1, 1, 0x85, 0xdc, 2, 3, 2, 1,
		0, 0, 1, 0, 3, 2, 1, 1, 0, 1, 0, 3, 2, 1})
	// 8/8 space: 32 → 32 → 1 536 points (in partition order).
	f.Add([]byte{1, 0, 3, 0, 3,
		0, 0, 31, 0, 1, 0, 2, 1, 0, 31, 0, 1, 0, 2,
		0, 0, 31, 0, 1, 0, 2, 1, 0, 31, 0, 1, 0, 2,
		0, 0xff, 0xff, 1, 1, 0, 2, 1, 0xff, 0xff, 1, 1, 0, 2})
	// 96/24 space: 17 → 59 → 128 points (in partition order), eight-step chains.
	f.Add([]byte{1, 0, 4, 0, 4,
		0, 0, 16, 0, 4, 7, 3, 1, 0, 16, 0, 4, 7, 3,
		0, 0x80, 0x3a, 0, 4, 7, 3, 1, 0x80, 0x3a, 0, 4, 7, 3,
		0, 0x80, 0x7f, 1, 4, 7, 3, 1, 0x80, 0x7f, 1, 4, 7, 3})
	// 64/16 space, three partitions: 701 → 4 → 901 points.
	f.Add([]byte{2, 0, 1, 0, 5,
		0, 0x82, 0xbc, 0, 2, 1, 4, 1, 0x82, 0xbc, 0, 2, 1, 4, 2, 0x82, 0xbc, 0, 2, 1, 4,
		0, 0, 3, 3, 2, 1, 4, 1, 0, 3, 3, 2, 1, 4, 2, 0, 3, 3, 2, 1, 4,
		0, 0x83, 0x84, 0, 2, 1, 4, 1, 0x83, 0x84, 0, 2, 1, 4, 2, 0x83, 0x84, 0, 2, 1, 4})
	f.Fuzz(func(t *testing.T, log []byte) {
		// A query costs a reference split: bound the log to the header and
		// nine queries, as many as a seed holds.
		replay(t, difftest.NewLog(log[:min(len(log), 5+9*7)]))
	})
}

// TestDeadPartitionRunPinsNothing: a partition whose arrays regrow leaves
// its carved runs in chunks its Runs keeps carving from. Nothing called
// Reset, so the run of sub-query records still names the query it split
// last; the regrowth clears it, and that query is collected.
func TestDeadPartitionRunPinsNothing(t *testing.T) {
	space := refSpaces[0]
	rng := rand.New(rand.NewSource(5))
	var runs Runs
	p := NewPartition(&runs)
	collected := make(chan struct{})
	func() {
		q := &Query{ID: 1, Kernel: field.KernelLag4, Points: randomPoints(rng, space, 3)}
		runtime.SetFinalizer(q, func(*Query) { close(collected) })
		if _, err := p.Split(q, space); err != nil {
			t.Fatal(err)
		}
	}()
	big := &Query{ID: 2, Kernel: field.KernelLag4, Points: randomPoints(rng, space, 500)}
	if subs, err := p.Split(big, space); err != nil || len(subs) <= 8 {
		t.Fatalf("%d sub-queries (%v), want more than a first run's 8", len(subs), err)
	}
	for range 100 {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(&runs)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the first query is still reachable: the partition's dead run pins it")
}

// A consumer that appends to one sub-query's slices must not reach into
// the next one's share of the backing arrays.
func TestPreProcessSlicesAreCapped(t *testing.T) {
	space := geom.Space{GridSide: 64, AtomSide: 16}
	q := &Query{ID: 1, Kernel: field.KernelLag8, DerivSteps: 2, Points: randomPoints(rand.New(rand.NewSource(3)), space, 200)}
	sqs, err := PreProcess(q, space)
	if err != nil {
		t.Fatal(err)
	}
	for _, sq := range sqs {
		if cap(sq.Index) != len(sq.Index) || cap(sq.Footprint) != len(sq.Footprint) {
			t.Fatalf("%v: index len %d cap %d, footprint len %d cap %d", sq.Atom,
				len(sq.Index), cap(sq.Index), len(sq.Footprint), cap(sq.Footprint))
		}
	}
}

// The allocation count of PreProcess is a constant: it depends neither on
// the number of points, nor on the number of atoms they fall in, nor on
// the length of a derivative chain.
func TestPreProcessAllocsConstant(t *testing.T) {
	space := geom.Space{GridSide: 128, AtomSide: 16} // 512 atoms per step
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		name   string
		points int
		chain  int
	}{
		{"8 points", 8, 0},
		{"512 points", 512, 0},
		{"4096 points", 4096, 0},
		{"512 points, 3-step chain", 512, 3},
	}
	for _, tc := range cases {
		q := &Query{ID: 1, Kernel: field.KernelLag6, DerivSteps: tc.chain, Points: randomPoints(rng, space, tc.points)}
		// The least of several runs is the count with the pooled scratch at
		// hand: under the race detector sync.Pool drops a quarter of what is
		// put back, and the next call then grows a scratch of its own.
		allocs := math.Inf(1)
		for i := 0; i < 10; i++ {
			allocs = min(allocs, testing.AllocsPerRun(2, func() {
				if _, err := PreProcess(q, space); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if allocs > 8 {
			t.Errorf("%s: %v allocs per PreProcess, want at most 8", tc.name, allocs)
		}
	}
}
