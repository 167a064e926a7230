package store

import (
	"math"
	"math/bits"
	"testing"
	"time"

	"jaws/internal/field"
	"jaws/internal/geom"
	"jaws/internal/morton"
)

func testConfig() Config {
	return Config{
		Space:      geom.Space{GridSide: 128, AtomSide: 32}, // 4³ = 64 atoms/step
		Steps:      4,
		SampleSide: 4,
		Seed:       1,
	}
}

func TestOpenValidation(t *testing.T) {
	bad := testConfig()
	bad.Steps = 0
	if _, err := Open(bad); err == nil {
		t.Fatal("zero steps accepted")
	}
	bad = testConfig()
	bad.Space = geom.Space{GridSide: 100, AtomSide: 32}
	if _, err := Open(bad); err == nil {
		t.Fatal("invalid space accepted")
	}
}

func TestOpenDefaults(t *testing.T) {
	cfg := testConfig()
	cfg.SampleSide = 0
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.geo != s.Field().Geometry(cfg.Space, 8, 0) {
		t.Fatal("the store's atoms are not of the field's 8-sample geometry")
	}
}

func TestReadKnownAtom(t *testing.T) {
	s, err := Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	id := AtomID{Step: 2, Code: morton.Encode(1, 2, 3)}
	a, cost, err := s.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatalf("read cost = %v, want positive", cost)
	}
	// The read charged the transfer; the samples wait for their first use,
	// and are then the ones an eager SampleGhost gives.
	cfg := testConfig()
	ac := geom.AtomFromCode(id.Code)
	if a == nil || !holdsNone(cfg, a) {
		t.Fatal("Read returned no atom, or one with its samples synthesized already")
	}
	want := s.Field().SampleGhost(id.Step, cfg.Space, ac, cfg.SampleSide, cfg.SampleGhost)
	p := cfg.Space.Center(ac)
	if got, w := field.Interpolate(field.KernelLag4, a, cfg.Space, ac, p), field.Interpolate(field.KernelLag4, want, cfg.Space, ac, p); got != w {
		t.Fatalf("interpolation on a read atom: %v, want %v", got, w)
	}
	if holdsNone(cfg, a) {
		t.Fatal("the atom holds nothing after an evaluation on it")
	}
	eachSample(cfg, func(i, j, k int) {
		got, w := a.At(i, j, k), want.At(i, j, k)
		for c := range w {
			if math.Float64bits(got[c]) != math.Float64bits(w[c]) {
				t.Fatalf("sample (%d,%d,%d) of the lazily filled atom is %v, eager %v", i, j, k, got, w)
			}
		}
	})
}

// holdsNone reports whether a, an atom of a store opened with cfg, holds
// none of its samples: a Lag8 stencil at an atom's centre reads every
// sample of the tests' 4³ atoms, so it misses them all.
func holdsNone(cfg Config, a *field.Atom) bool {
	ac := geom.AtomCoord{}
	miss := a.Missing(field.KernelLag8, ac, []geom.Position{cfg.Space.Center(ac)})
	n := 0
	for _, w := range miss {
		n += bits.OnesCount64(w)
	}
	d := cfg.SampleSide + 2*cfg.SampleGhost
	return n == d*d*d
}

// eachSample calls fn on the indices of every sample of an atom of a store
// opened with cfg, halo included.
func eachSample(cfg Config, fn func(i, j, k int)) {
	side, g := cfg.SampleSide, cfg.SampleGhost
	for k := -g; k < side+g; k++ {
		for j := -g; j < side+g; j++ {
			for i := -g; i < side+g; i++ {
				fn(i, j, k)
			}
		}
	}
}

// TestReadIntoOverwritesTheHandle: ReadInto gives the atom in the handle it
// was handed, charged like a Read and with nothing of the handle's former
// atom; a read that fails returns no atom and leaves the handle alone.
func TestReadIntoOverwritesTheHandle(t *testing.T) {
	s, err := Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	idA, idB := AtomID{Step: 2, Code: morton.Encode(1, 2, 3)}, AtomID{Step: 0, Code: morton.Encode(3, 0, 1)}
	h, _, err := s.Read(idA)
	if err != nil {
		t.Fatal(err)
	}
	h.Fill()
	b, cost, err := s.ReadInto(idB, h)
	if err != nil || b != h || cost <= 0 || !holdsNone(cfg, h) {
		t.Fatalf("ReadInto: atom %p for handle %p, cost %v, holding nothing %v, error %v", b, h, cost, holdsNone(cfg, h), err)
	}
	fresh, _, err := s.Read(idB)
	if err != nil || fresh == h {
		t.Fatalf("Read returned %p (the recycled handle is %p), error %v", fresh, h, err)
	}
	ac := geom.AtomFromCode(idB.Code)
	p := cfg.Space.Center(ac)
	if got, w := field.Interpolate(field.KernelLag4, h, cfg.Space, ac, p), field.Interpolate(field.KernelLag4, fresh, cfg.Space, ac, p); got != w {
		t.Fatalf("interpolation on the recycled handle: %v, on a fresh one %v", got, w)
	}

	if a, cost, err := s.ReadInto(AtomID{Step: cfg.Steps}, h); err == nil || a != nil || cost != 0 {
		t.Fatalf("failed ReadInto: atom %p, cost %v, error %v", a, cost, err)
	}
	if got, w := field.Interpolate(field.KernelLag4, h, cfg.Space, ac, p), field.Interpolate(field.KernelLag4, fresh, cfg.Space, ac, p); got != w {
		t.Fatalf("after a failed read the handle evaluates to %v, want its atom's %v", got, w)
	}
}

func TestReadMissingAtom(t *testing.T) {
	s, _ := Open(testConfig())
	if _, _, err := s.Read(AtomID{Step: 99, Code: 0}); err == nil {
		t.Fatal("read of missing step succeeded")
	}
	if _, _, err := s.Read(AtomID{Step: 0, Code: morton.Code(1 << 30)}); err == nil {
		t.Fatal("read of out-of-grid atom succeeded")
	}
	for _, id := range outside() {
		if a, _, err := s.Read(id); err == nil || a != nil {
			t.Fatalf("read of %+v outside the store: atom %v, error %v", id, a, err)
		}
	}
}

// outside lists atoms just past each edge of testConfig's store (4 steps of
// 64 atoms), and a code whose bits would spill into the step of a packed
// Key.
func outside() []AtomID {
	return []AtomID{
		{Step: -1, Code: 0},
		{Step: 4, Code: 0},
		{Step: 0, Code: 64},
		{Step: 0, Code: 1 << keyCodeBits},
	}
}

// TestKeyPacking: Key packs every atom of the largest geometry Open accepts
// into one word that FromKey inverts, in (step, Morton) order, and Open
// refuses a geometry one past either bound.
func TestKeyPacking(t *testing.T) {
	const lastCode = morton.Code(1<<keyCodeBits - 1)
	for _, tc := range []struct {
		id  AtomID
		key uint64
	}{
		{AtomID{}, 0},
		{AtomID{Step: 0, Code: lastCode}, 1<<42 - 1},
		{AtomID{Step: 1, Code: 0}, 1 << 42},
		{AtomID{Step: maxSteps - 1, Code: 0}, (1<<20 - 1) << 42},
		{AtomID{Step: maxSteps - 1, Code: lastCode}, 1<<62 - 1},
	} {
		if got := tc.id.Key(); got != tc.key {
			t.Errorf("%+v.Key() = %#x, want %#x", tc.id, got, tc.key)
		}
		if got := FromKey(tc.key); got != tc.id {
			t.Errorf("FromKey(%#x) = %+v, want %+v", tc.key, got, tc.id)
		}
	}
	if a, b := (AtomID{Step: 0, Code: lastCode}).Key(), (AtomID{Step: 1}).Key(); a >= b {
		t.Errorf("a step's last atom keys %#x, the next step's first %#x: not in disk order", a, b)
	}
	// Open builds nothing per atom, so the largest geometry it accepts is
	// as cheap to open here as the smallest.
	for _, tc := range []struct {
		steps, perAxis int
		ok             bool
	}{
		{maxSteps - 1, 1, true},
		{maxSteps, 1, false},
		{1, maxAtomsPerAxis, true},
		{1, 2 * maxAtomsPerAxis, false},
	} {
		cfg := testConfig()
		cfg.Steps = tc.steps
		cfg.Space = geom.Space{GridSide: tc.perAxis, AtomSide: 1}
		s, err := Open(cfg)
		if (err == nil) != tc.ok {
			t.Errorf("Open at %d steps, %d atoms per axis: error %v, want accepted %v", tc.steps, tc.perAxis, err, tc.ok)
		}
		if err != nil {
			continue
		}
		// The last atom of an accepted geometry has a handle too (the
		// handle's own round trip is field's TestHandleIs24Bytes).
		last := AtomID{Step: tc.steps - 1, Code: morton.Code(s.per - 1)}
		if a, _, err := s.Read(last); err != nil || a == nil {
			t.Errorf("Read(%v) at %d steps, %d atoms per axis: %v", last, tc.steps, tc.perAxis, err)
		}
	}
}

func TestContains(t *testing.T) {
	s, _ := Open(testConfig())
	if !s.Contains(AtomID{Step: 0, Code: 0}) {
		t.Fatal("first atom missing")
	}
	if !s.Contains(AtomID{Step: 3, Code: morton.Code(63)}) {
		t.Fatal("last atom missing")
	}
	if s.Contains(AtomID{Step: 4, Code: 0}) {
		t.Fatal("phantom step present")
	}
	if s.Contains(AtomID{Step: 0, Code: morton.Code(64)}) {
		t.Fatal("phantom atom present")
	}
	for _, id := range outside() {
		if s.Contains(id) {
			t.Fatalf("%+v is outside the store but Contains says it is in", id)
		}
	}
}

// TestLayoutIsKeyOrder: every atom's read lands on its (step, Morton) rank
// × the nominal atom size, whatever order the atoms are read in.
func TestLayoutIsKeyOrder(t *testing.T) {
	cfg := testConfig()
	cfg.Steps = 2
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var gotAddr, gotSize int64
	s.SetIOObserver(func(addr, size int64, _ bool, _ time.Duration) { gotAddr, gotSize = addr, size })
	for i := 0; i < 128; i++ {
		rank := (i * 37) % 128
		id := AtomID{Step: rank / 64, Code: morton.Code(rank % 64)}
		gotAddr, gotSize = -1, -1
		if _, _, err := s.Read(id); err != nil {
			t.Fatal(err)
		}
		if want := int64(rank) * field.NominalAtomBytes; gotAddr != want || gotSize != field.NominalAtomBytes {
			t.Fatalf("read of %+v: extent [%d, +%d), want [%d, +%d)", id, gotAddr, gotSize, want, field.NominalAtomBytes)
		}
	}
}

// TestOpenIndependentOfSteps: opening a store costs the same whatever number
// of steps it holds, because nothing is built per atom.
func TestOpenIndependentOfSteps(t *testing.T) {
	allocs := func(steps int) float64 {
		cfg := testConfig()
		cfg.Space = geom.Space{GridSide: 256, AtomSide: 32} // 512 atoms/step
		cfg.Steps = steps
		return testing.AllocsPerRun(20, func() {
			if _, err := Open(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(31); one != many {
		t.Fatalf("Open allocates %v objects at 1 step and %v at 31", one, many)
	}
}

func TestReadDeterministic(t *testing.T) {
	s1, _ := Open(testConfig())
	s2, _ := Open(testConfig())
	id := AtomID{Step: 1, Code: morton.Encode(2, 0, 1)}
	a1, _, _ := s1.Read(id)
	a2, _, _ := s2.Read(id)
	a1.Fill()
	a2.Fill()
	n := 0
	eachSample(testConfig(), func(i, j, k int) {
		if a1.At(i, j, k) != a2.At(i, j, k) {
			t.Fatalf("atom data not deterministic at (%d,%d,%d)", i, j, k)
		}
		n++
	})
	if n != 4*4*4 {
		t.Fatalf("%d samples compared, want 4³", n)
	}
}

func TestScanStepMortonOrder(t *testing.T) {
	s, _ := Open(testConfig())
	var ids []AtomID
	s.ScanStep(1, func(id AtomID) bool { ids = append(ids, id); return true })
	if len(ids) != 64 {
		t.Fatalf("step scan returned %d atoms, want 64", len(ids))
	}
	for i, id := range ids {
		if id.Step != 1 {
			t.Fatalf("scan leaked step %d", id.Step)
		}
		if int(id.Code) != i {
			t.Fatalf("scan out of Morton order at %d: code %d", i, id.Code)
		}
	}
	for _, step := range []int{-1, 4} {
		n := 0
		s.ScanStep(step, func(AtomID) bool { n++; return true })
		if n != 0 {
			t.Fatalf("scan of step %d, which the store does not hold, visited %d atoms", step, n)
		}
	}
}

func TestScanStepEarlyStop(t *testing.T) {
	s, _ := Open(testConfig())
	n := 0
	s.ScanStep(0, func(AtomID) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestSequentialStepScanIsCheaper(t *testing.T) {
	// Reading a whole step in Morton order should cost less than reading
	// the same atoms in a scattered order, thanks to sequential-run
	// detection in the disk model. This is the physical basis for
	// Morton-sorted batch execution.
	seq, _ := Open(testConfig())
	var seqCost, scatterCost int64
	for c := 0; c < 64; c++ {
		_, d, err := seq.Read(AtomID{Step: 0, Code: morton.Code(c)})
		if err != nil {
			t.Fatal(err)
		}
		seqCost += int64(d)
	}
	scatter, _ := Open(testConfig())
	// Stride pattern that never continues a run.
	for i := 0; i < 64; i++ {
		c := (i * 37) % 64
		_, d, err := scatter.Read(AtomID{Step: 0, Code: morton.Code(c)})
		if err != nil {
			t.Fatal(err)
		}
		scatterCost += int64(d)
	}
	if seqCost >= scatterCost {
		t.Fatalf("Morton scan (%d) not cheaper than scattered (%d)", seqCost, scatterCost)
	}
}

func TestDiskStats(t *testing.T) {
	s, _ := Open(testConfig())
	s.Read(AtomID{Step: 0, Code: 0})
	s.Read(AtomID{Step: 0, Code: 1})
	st := s.DiskStats()
	if st.Reads != 2 {
		t.Fatalf("Reads = %d, want 2", st.Reads)
	}
	s.ResetDiskStats()
	if st := s.DiskStats(); st.Reads != 0 {
		t.Fatalf("reset left %+v", st)
	}
}

func TestAtomIDKeyOrdering(t *testing.T) {
	// Keys must order by step first, then Morton code.
	a := AtomID{Step: 1, Code: morton.Code(1000)}
	b := AtomID{Step: 2, Code: 0}
	if a.Key() >= b.Key() {
		t.Fatal("key ordering broken across steps")
	}
	c := AtomID{Step: 1, Code: morton.Code(999)}
	if c.Key() >= a.Key() {
		t.Fatal("key ordering broken within step")
	}
}

func TestAtomIDString(t *testing.T) {
	if (AtomID{Step: 3, Code: morton.Encode(1, 2, 3)}).String() == "" {
		t.Fatal("empty String")
	}
}

func TestAccessors(t *testing.T) {
	s, _ := Open(testConfig())
	if s.Field() == nil {
		t.Fatal("nil field")
	}
	if s.Space() != (geom.Space{GridSide: 128, AtomSide: 32}) {
		t.Fatalf("Space = %+v", s.Space())
	}
}

var sinkAtom *field.Atom

// BenchmarkStoreRead is one Read of a daemon-shaped atom (8³ samples): the
// bounds check, the disk model and the frame, with no synthesis.
func BenchmarkStoreRead(b *testing.B) {
	cfg := testConfig()
	cfg.SampleSide = 8
	s, _ := Open(cfg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkAtom, _, _ = s.Read(AtomID{Step: i % 4, Code: morton.Code(i % 64)})
	}
}
