package query

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"jaws/internal/field"
	"jaws/internal/geom"
	"jaws/internal/morton"
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

// splitBothWays splits q into p twice — with the packed key's full room,
// and with one bit less than q's keys need, which forces the comparator —
// and checks each against the reference.
func splitBothWays(t *testing.T, label string, p *Partition, q *Query, space geom.Space) {
	t.Helper()
	_, need := layoutFor(space, len(q.Points))
	if need > packedKeyBits {
		t.Fatalf("%s: a test query needs %d key bits", label, need)
	}
	for _, room := range []int{need - 1, packedKeyBits} {
		got, err := p.split(q, space, room)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, fmt.Sprintf("%s, %d bits of room for %d", label, room, need), q, space, pointers(got))
	}
}

// checkAgainstReference fails unless got is what the reference returns for
// q, sub-query for sub-query: atoms in the same key order, the same request
// indices in the same order (input-order ties included), the same sorted
// footprints (nil where empty). The indices of each step must be a
// permutation of 0..n-1: every point answered once.
func checkAgainstReference(t *testing.T, label string, q *Query, space geom.Space, got []*SubQuery) {
	t.Helper()
	want, err := refPreProcess(q, space)
	if err != nil {
		t.Fatal(err)
	}
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
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s sub-query %d:\n%+v\nreference\n%+v", label, i, *g, *w)
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

// PreProcess must return what the reference returns — for every kernel
// radius, plain and chained, on spaces whose atoms are wider and narrower
// than the stencil — and leave the query's own points alone.
func TestPreProcessMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{1, 2, 8, 13, 17, 59, 64, 128, 512, 1000}
	for trial := 0; trial < 600; trial++ {
		space := refSpaces[trial%len(refSpaces)]
		q := &Query{
			ID:     ID(trial + 1),
			Step:   rng.Intn(5),
			Kernel: refKernels[rng.Intn(len(refKernels))],
			Points: shapedPoints(rng, space, sizes[rng.Intn(len(sizes))], rng.Intn(6)),
		}
		if trial%2 == 1 {
			q.DerivSteps = 2 + rng.Intn(7)
		}
		input := append([]geom.Position(nil), q.Points...)
		got, err := PreProcess(q, space)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(q.Points, input) {
			t.Fatalf("trial %d: PreProcess reordered the query's own points", trial)
		}
		checkAgainstReference(t, fmt.Sprintf("trial %d", trial), q, space, got)
		splitBothWays(t, fmt.Sprintf("trial %d", trial), new(Partition), q, space)
	}
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

// reuseQuery draws the n-th query of a Partition's life: 1 to 2 000
// points (faces, the periodic seam, ties: randomPoints), any kernel, a
// chain of 1 to 8 steps.
func reuseQuery(rng *rand.Rand, space geom.Space, n, points int) *Query {
	q := &Query{
		ID:     ID(n + 1),
		Step:   rng.Intn(5),
		Kernel: refKernels[rng.Intn(len(refKernels))],
		Points: randomPoints(rng, space, points),
	}
	if chain := 1 + rng.Intn(8); chain > 1 {
		q.DerivSteps = chain
	}
	return q
}

// Partitions refilled query after query must return what a fresh one
// returns every time: nothing of an earlier, larger or chained query may
// show in a later one. Three partitions carve from one Runs, their splits
// interleaved, and each one's last result must still be the reference's
// after the others have split: no run carved for one overlaps another's.
func TestPartitionReuseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sizes := []int{2000, 1, 8, 700, 3, 64, 1999, 2, 512, 13}
	for si, space := range refSpaces {
		var runs Runs
		ps := []Partition{NewPartition(&runs), NewPartition(&runs), NewPartition(&runs)}
		last := make([]*Query, len(ps))
		for n := 0; n < 60; n++ {
			k := n % len(ps)
			// Reset, called before a frame's next query as the engine calls
			// it, leaves the arrays in place and no reference to any query in
			// them.
			ps[k].Reset()
			if n%10 == 9 {
				for i, sq := range ps[k].subs[:cap(ps[k].subs)] {
					if sq.Query != nil {
						t.Fatalf("space %d: record %d still points at query %d after Reset", si, i, sq.Query.ID)
					}
				}
			}
			last[k] = reuseQuery(rng, space, n, sizes[n%len(sizes)])
			if _, err := ps[k].Split(last[k], space); err != nil {
				t.Fatal(err)
			}
			for j, q := range last {
				if q != nil {
					checkSplit(t, fmt.Sprintf("space %d query %d, partition %d after query %d", si, q.ID-1, j, n), q, space, ps[j].subs)
				}
			}
		}
	}
}

// checkSplit holds a partition's last split to the reference, and each
// sub-query's slices capped at their length.
func checkSplit(t *testing.T, label string, q *Query, space geom.Space, subs []SubQuery) {
	t.Helper()
	checkAgainstReference(t, label, q, space, pointers(subs))
	for _, sq := range subs {
		if cap(sq.Index) != len(sq.Index) || cap(sq.Footprint) != len(sq.Footprint) {
			t.Fatalf("%s, %v: slices not capped at their length", label, sq.Atom)
		}
	}
}

// FuzzPartitionReuse drives the same comparison from fuzzed sizes: two or
// three partitions carving from one Runs each serve three queries in a row,
// of sizes a, b and c, their splits interleaved. The fuzzer chooses the
// space, the number of partitions and how large each query is — up to 32
// points for the lower half of a size's range and up to 2 000 for the
// upper, so that most executions are cheap — and the shape of each
// (shuffled, in partition order, reversed, one position n times), each
// split with the packed key and with the comparator. After every split,
// each partition's last result must still be the reference's.
func FuzzPartitionReuse(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(1<<15+1999), uint16(0), uint16(7))
	f.Add(int64(2), uint8(2), uint16(2), uint16(1<<15+1500), uint16(1))
	f.Add(int64(3), uint8(3), uint16(31), uint16(31), uint16(1<<16-1))
	f.Add(int64(4), uint8(4), uint16(16), uint16(1<<15+58), uint16(1<<15+127))
	f.Add(int64(5), uint8(6), uint16(1<<15+700), uint16(3), uint16(1<<15+900))
	f.Fuzz(func(t *testing.T, seed int64, spaceIdx uint8, a, b, c uint16) {
		rng := rand.New(rand.NewSource(seed))
		space := refSpaces[int(spaceIdx)%len(refSpaces)]
		var runs Runs
		ps := make([]Partition, 2+int(spaceIdx)/len(refSpaces)%2)
		for i := range ps {
			ps[i] = NewPartition(&runs)
		}
		last := make([]*Query, len(ps))
		for n := 0; n < 3*len(ps); n++ {
			size := []uint16{a, b, c}[n/len(ps)]
			points := 1 + int(size)%32
			if size >= 1<<15 {
				points = 1 + int(size)%2000
			}
			q := reuseQuery(rng, space, n, points)
			q.Points = shapedPoints(rng, space, points, int(size>>5)%6)
			k := n % len(ps)
			splitBothWays(t, fmt.Sprintf("query %d", n), &ps[k], q, space)
			last[k] = q
			for j, lq := range last {
				if lq != nil {
					checkSplit(t, fmt.Sprintf("partition %d after query %d", j, n), lq, space, ps[j].subs)
				}
			}
		}
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
