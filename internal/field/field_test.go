package field

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"jaws/internal/geom"
)

func testSpace() geom.Space { return geom.Space{GridSide: 256, AtomSide: 32} }

func TestNewDeterministic(t *testing.T) {
	f1 := New(42, 32, 0)
	f2 := New(42, 32, 0)
	p := geom.Position{X: 1.1, Y: 2.2, Z: 3.3}
	v1, v2 := f1.Eval(5, p), f2.Eval(5, p)
	if v1 != v2 {
		t.Fatalf("same seed diverged: %v vs %v", v1, v2)
	}
	f3 := New(43, 32, 0)
	if f3.Eval(5, p) == v1 {
		t.Fatal("different seeds produced identical field")
	}
}

func TestNewDefaults(t *testing.T) {
	f := New(1, 0, 0)
	if len(f.modes) == 0 {
		t.Fatal("default mode count is zero")
	}
	if f.dt <= 0 {
		t.Fatal("default dt not positive")
	}
}

func TestEvalPeriodic(t *testing.T) {
	f := New(7, 32, 0)
	a := f.Eval(3, geom.Position{X: 0.5, Y: 1.0, Z: 1.5})
	b := f.Eval(3, geom.Position{X: 0.5 + geom.DomainSide, Y: 1.0, Z: 1.5 + 2*geom.DomainSide})
	for c := 0; c < Components; c++ {
		if math.Abs(a[c]-b[c]) > 1e-9 {
			t.Fatalf("field not periodic: component %d: %g vs %g", c, a[c], b[c])
		}
	}
}

func TestEvalTimeVaries(t *testing.T) {
	f := New(7, 32, 0)
	p := geom.Position{X: 2, Y: 2, Z: 2}
	if f.Eval(0, p) == f.Eval(100, p) {
		t.Fatal("field constant in time")
	}
}

// Property: the synthesized velocity field is statistically bounded — no
// NaN/Inf anywhere.
func TestEvalFinite(t *testing.T) {
	f := New(11, 48, 0)
	g := func(x, y, z float64, s uint8) bool {
		v := f.Eval(int(s), geom.Position{X: x, Y: y, Z: z})
		for _, c := range v {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The velocity field is constructed divergence-free; verify via central
// differences that divergence is near zero relative to the gradient scale.
func TestDivergenceFree(t *testing.T) {
	f := New(3, 48, 0)
	h := 1e-5
	p := geom.Position{X: 1.3, Y: 2.7, Z: 4.1}
	div := 0.0
	grad := 0.0
	for axis := 0; axis < 3; axis++ {
		plus, minus := p, p
		switch axis {
		case 0:
			plus.X += h
			minus.X -= h
		case 1:
			plus.Y += h
			minus.Y -= h
		case 2:
			plus.Z += h
			minus.Z -= h
		}
		d := (f.Eval(0, plus)[axis] - f.Eval(0, minus)[axis]) / (2 * h)
		div += d
		grad += math.Abs(d)
	}
	// Pressure gradient scale as a yardstick for "near zero".
	if grad == 0 {
		t.Skip("degenerate field")
	}
	if math.Abs(div) > 1e-6*math.Max(grad, 1) {
		t.Fatalf("divergence %g too large (|grad| sum %g)", div, grad)
	}
}

func TestSampleShape(t *testing.T) {
	f := New(5, 16, 0)
	s := testSpace()
	a := f.SampleGhost(0, s, geom.AtomCoord{I: 1, J: 2, K: 3}, 8, 0)
	if a.geo.side != 8 {
		t.Fatalf("Side = %d, want 8", a.geo.side)
	}
	if *a.held() != a.all() || a.unitsHeld() != 8*8*2 || a.filled.rows.Bytes() != 8*8*8*Components*8 {
		t.Fatalf("holds blocks %x in %d half rows, %d B; want every block, 128 half rows of 128 B", *a.held(), a.unitsHeld(), a.filled.rows.Bytes())
	}
}

func TestSampleDefaultSide(t *testing.T) {
	f := New(5, 16, 0)
	a := f.SampleGhost(0, testSpace(), geom.AtomCoord{I: 0, J: 0, K: 0}, 0, 0)
	if a.geo.side != 8 {
		t.Fatalf("default side = %d, want 8", a.geo.side)
	}
}

// TestFillMatchesEval pins the fill kernel to the analytic ground truth,
// bit for bit: every stored value of an atom is the Eval of its sample
// position, over sides and halos, two steps, and an interior atom and the
// two seam atoms of an axis (where halo positions wrap). The products are
// rounded explicitly so the test's positions are the kernel's on
// architectures that fuse multiply-adds.
func TestFillMatchesEval(t *testing.T) {
	f := New(5, 48, 0)
	s := testSpace()
	atomLen := float64(s.AtomSide) * s.VoxelSize()
	last := uint32(s.GridSide/s.AtomSide - 1)
	for _, side := range []int{4, 8, 12} {
		for _, ghost := range []int{0, 2, 4} {
			for _, step := range []int{0, 7} {
				for _, ac := range []geom.AtomCoord{{I: 2, J: 1, K: 3}, {I: 0, J: 0, K: 0}, {I: last, J: last, K: last}} {
					a := f.SampleGhost(step, s, ac, side, ghost)
					h := atomLen / float64(side)
					at := func(c uint32, n int) float64 {
						return float64(float64(c)*atomLen) + float64((float64(n)+0.5)*h)
					}
					idx := 0
					for k := -ghost; k < side+ghost; k++ {
						for j := -ghost; j < side+ghost; j++ {
							for i := -ghost; i < side+ghost; i++ {
								want := f.Eval(step, geom.Position{X: at(ac.I, i), Y: at(ac.J, j), Z: at(ac.K, k)})
								for c, w := range want {
									if got := a.sample(i+ghost, j+ghost, k+ghost)[c]; math.Float64bits(got) != math.Float64bits(w) {
										t.Fatalf("side %d ghost %d step %d atom %v sample (%d,%d,%d) component %d: %v, Eval gives %v",
											side, ghost, step, ac, i, j, k, c, got, w)
									}
								}
								if a.At(i, j, k) != want {
									t.Fatalf("At(%d,%d,%d) = %v, want %v", i, j, k, a.At(i, j, k), want)
								}
								idx += Components
							}
						}
					}
					if d := a.dim(); idx != d*d*d*Components || *a.held() != a.all() {
						t.Fatalf("side %d ghost %d: %d values checked, blocks %x held; want all %d of every block", side, ghost, idx, *a.held(), d*d*d*Components)
					}
				}
			}
		}
	}
}

// TestFrameLifecycle walks one frame through its states: unfilled and
// holding no samples, filled on first use into half rows of the arena it
// is given (whatever those held), released, and filled again with the same
// values.
func TestFrameLifecycle(t *testing.T) {
	f := New(5, 48, 0)
	s := testSpace()
	ac := geom.AtomCoord{I: 1, J: 2, K: 3}
	want := f.SampleGhost(3, s, ac, 4, 2)

	a, dirty := poisoned(f, 3, s, ac, 4, 2)
	if a.unitsHeld() != 0 || a.filled != nil {
		t.Fatalf("a new frame holds %d half rows", a.unitsHeld())
	}
	a.FillBlocks(a.all(), dirty)
	if a.filled.rows != dirty || a.unitsHeld() != 8*8*2 || dirty.inUse() != 8*8*2 {
		t.Fatalf("Fill bound arena %p, want the %p it was given; %d half rows held, %d taken", a.filled.rows, dirty, a.unitsHeld(), dirty.inUse())
	}
	same := func(stage string) {
		t.Helper()
		d := a.dim()
		for z := 0; z < d; z++ {
			for y := 0; y < d; y++ {
				for x := 0; x < d; x++ {
					for c, w := range want.sample(x, y, z) {
						if got := a.sample(x, y, z)[c]; math.Float64bits(got) != math.Float64bits(w) {
							t.Fatalf("%s: sample (%d,%d,%d) component %d is %v, want %v", stage, x, y, z, c, got, w)
						}
					}
				}
			}
		}
	}
	same("filled into dirty half rows")
	a.Fill() // filled already: keeps its half rows
	if a.filled.rows != dirty || dirty.inUse() != 8*8*2 || dirty.carved != 8*8*2 {
		t.Fatal("Fill replaced the half rows of a filled atom")
	}
	if a.Release(); a.unitsHeld() != 0 || a.filled.rows != nil || dirty.inUse() != 0 || len(dirty.free) != 8*8*2 {
		t.Fatalf("Release: %d half rows held, %d of the arena's in use; want every unit handed back", a.unitsHeld(), dirty.inUse())
	}
	if got, w := Interpolate(KernelLag4, a, s, ac, s.Center(ac)), Interpolate(KernelLag4, want, s, ac, s.Center(ac)); got != w {
		t.Fatalf("interpolation on a released frame: %v, want %v", got, w)
	}
	if a.unitsHeld() == 0 || *a.held() == a.all() || a.filled.rows == dirty {
		t.Fatalf("first use filled blocks %x of %x into arena %p: want its stencil's alone, into an arena of its own", *a.held(), a.all(), a.filled.rows)
	}
	a.Fill()
	same("refilled by first use, then completed")
	a.Release()
	a.FillBlocks(a.all(), dirty) // released, it binds to the next arena given
	same("filled again from recycled half rows")
	if a.filled.rows != dirty || dirty.carved != 8*8*2 {
		t.Fatalf("refill: arena %p, %d units carved; want the %p given, its 128 half rows reused", a.filled.rows, dirty.carved, dirty)
	}

	// The handle taken over for another atom, filled as it is: nothing of
	// the atom it was is left, and it evaluates as a frame of its own does.
	bc := geom.AtomCoord{I: 3, J: 0, K: 1}
	if b := f.Geometry(s, 4, 0).FrameInto(a, 2, bc); b != a || a.unitsHeld() != 0 || dirty.inUse() != 0 || a.geo.ghost != 0 {
		t.Fatalf("FrameInto returned %p for %p, %d half rows held, %d in use, halo %d; want the handle itself, released, as described",
			b, a, a.unitsHeld(), dirty.inUse(), a.geo.ghost)
	}
	want = f.SampleGhost(2, s, bc, 4, 0)
	a.Fill()
	same("taken over for another atom")
}

// TestHandleCarriesNoBlocks: a replay keeps thousands of atoms resident
// that it never fills, so the handle carries neither block set nor unit
// table; the two are allocated at the handle's first fill and kept,
// emptied, when the handle is released and taken over. The unit table
// costs 4 B a half block row, so a fully filled 8³ atom grows by under 4 %.
func TestHandleCarriesNoBlocks(t *testing.T) {
	if n := reflect.TypeFor[holding]().Size(); n > 64+8+128*4 {
		t.Fatalf("an atom's holding is %d bytes, want at most its block set, arena pointer and 4 B a half block row", n)
	}
	f := New(5, 8, 0)
	s := testSpace()
	a := f.Frame(0, s, geom.AtomCoord{}, 8, 0)
	if a.filled != nil {
		t.Fatal("a new frame carries a block set")
	}
	a.Fill()
	set := a.filled
	a.Release()
	if f.Geometry(s, 8, 0).FrameInto(a, 1, geom.AtomCoord{I: 1}); a.filled != set || set.blocks != (Blocks{}) || set.rows != nil {
		t.Fatalf("released and taken over: holding %p %x, want %p kept and empty", a.filled, *a.held(), set)
	}
}

// TestHandleIs24Bytes: a warm System keeps one handle per resident atom,
// so the handle is three words — its geometry, the packed (step, I, J, K)
// and its holding — and the packing is lossless up to the bounds store.Open
// enforces, which are MaxSteps and MaxAtomsPerAxis.
func TestHandleIs24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Atom{}); n != 24 {
		t.Fatalf("an atom handle is %d bytes, want 24", n)
	}
	f := New(5, 8, 0)
	last := uint32(MaxAtomsPerAxis - 1)
	for _, tc := range []struct {
		perAxis int
		step    int
		ac      geom.AtomCoord
	}{
		{1, 0, geom.AtomCoord{}},
		{1, MaxSteps - 1, geom.AtomCoord{}},
		{MaxAtomsPerAxis, 0, geom.AtomCoord{I: last, J: last, K: last}},
		{MaxAtomsPerAxis, MaxSteps - 1, geom.AtomCoord{I: last, J: last, K: last}},
		{MaxAtomsPerAxis, MaxSteps - 1, geom.AtomCoord{I: last, J: 0, K: 1}},
		{MaxAtomsPerAxis, 1, geom.AtomCoord{I: 1, J: last - 1, K: 0}},
	} {
		a := f.Frame(tc.step, geom.Space{GridSide: tc.perAxis, AtomSide: 1}, tc.ac, 8, 0)
		if a.step() != tc.step || a.coord() != tc.ac {
			t.Errorf("atom %v of step %d reads back as %v of step %d", tc.ac, tc.step, a.coord(), a.step())
		}
	}
	for _, bad := range []func(){
		func() { f.Frame(MaxSteps, geom.Space{GridSide: 1, AtomSide: 1}, geom.AtomCoord{}, 8, 0) },
		func() { f.Frame(-1, geom.Space{GridSide: 1, AtomSide: 1}, geom.AtomCoord{}, 8, 0) },
		func() { f.Frame(0, geom.Space{GridSide: 4, AtomSide: 1}, geom.AtomCoord{J: 4}, 8, 0) },
		func() { f.Geometry(geom.Space{GridSide: 2 * MaxAtomsPerAxis, AtomSide: 1}, 8, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("an atom a handle cannot name was framed")
				}
			}()
			bad()
		}()
	}
}

// TestGeometryTablesLazy: a field resolves one geometry per shape, and
// Frame finds it rather than building another; the x and y phase tables
// are built by the geometry's first fill, not by a frame of it, so a
// store whose atoms nothing evaluates on holds none.
func TestGeometryTablesLazy(t *testing.T) {
	f := New(5, 8, 0)
	s := testSpace()
	g := f.Geometry(s, 0, -1)
	if g != f.Geometry(s, 8, 0) || g == f.Geometry(s, 8, 2) || g == f.Geometry(s, 4, 0) || len(f.geos) != 3 {
		t.Fatalf("%d geometries resolved, want one per shape, the defaults folded in", len(f.geos))
	}
	a := f.Frame(3, s, geom.AtomCoord{I: 2, J: 5, K: 7}, 8, 0)
	if a.geo != g || g.ex != nil || g.ey != nil {
		t.Fatal("a frame built a geometry or its tables")
	}
	a.FillBlocks(Blocks{1}, nil)
	if n := s.AtomsPerAxis() * g.dim * len(f.modes); len(g.ex) != n || len(g.ey) != n {
		t.Fatalf("tables of %d and %d phasors after the first fill, want %d each", len(g.ex), len(g.ey), n)
	}
	if n := len(a.filled.rows.tab); n != (g.dim+1)*len(f.modes) {
		t.Fatalf("the arena's phase scratch is %d entries, want (dim+1)·modes = %d", n, (g.dim+1)*len(f.modes))
	}
}

// TestFirstFillsShareTables: the tables are built under a sync.Once by
// whichever fill comes first, so fills of different atoms of one geometry
// may race to build them. Four goroutines make the first fills of four
// atoms at once, each into an arena of its own; every sample equals an
// eager SampleGhost's on a field of the same seed, whose tables one
// goroutine built, bit for bit. Run under -race (make race-obs).
func TestFirstFillsShareTables(t *testing.T) {
	s := testSpace()
	for _, ghost := range []int{0, 2} {
		f, ref := New(17, 24, 0), New(17, 24, 0)
		g := f.Geometry(s, 8, ghost)
		acs := []geom.AtomCoord{{I: 0, J: 7, K: 1}, {I: 3, J: 3, K: 3}, {I: 7, J: 0, K: 5}, {I: 5, J: 6, K: 0}}
		atoms := make([]*Atom, len(acs))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i, ac := range acs {
			atoms[i] = g.FrameInto(nil, i+1, ac)
			wg.Add(1)
			go func(a *Atom) {
				defer wg.Done()
				<-start
				a.Fill()
			}(atoms[i])
		}
		close(start)
		wg.Wait()
		for i, a := range atoms {
			want := ref.SampleGhost(i+1, s, acs[i], 8, ghost)
			for k := -ghost; k < 8+ghost; k++ {
				for j := -ghost; j < 8+ghost; j++ {
					for l := -ghost; l < 8+ghost; l++ {
						got, w := a.At(l, j, k), want.At(l, j, k)
						for c := range w {
							if math.Float64bits(got[c]) != math.Float64bits(w[c]) {
								t.Fatalf("ghost %d, atom %v: sample (%d,%d,%d) is %v, SampleGhost's %v", ghost, acs[i], l, j, k, got, w)
							}
						}
					}
				}
			}
		}
	}
}

// poisoned returns a frame of atom ac filled into nothing yet, with an
// arena of units of NaNs it will fill into, enough for the whole atom: a
// read of a sample it has not filled yields NaN, which no evaluation can
// mistake for a sample.
func poisoned(f *Field, step int, s geom.Space, ac geom.AtomCoord, side, ghost int) (*Atom, *RowArena) {
	a := f.Frame(step, s, ac, side, ghost)
	r := new(RowArena)
	r.shape(a)
	units := a.unitsPerAtom()
	for range units {
		r.take()
	}
	for _, slab := range r.slabs {
		for i := range slab {
			slab[i] = math.NaN()
		}
	}
	for i := units - 1; i >= 0; i-- {
		r.put(uint32(i))
	}
	return a, r
}

// sample returns the stored components of sample (x, y, z), in stored
// indices, of an atom that holds a block of its half block row.
func (a *Atom) sample(x, y, z int) []float64 {
	v, _ := a.line(x, x+1, y, z)
	return v
}

// unitsPerAtom is the number of half block rows of the atom: one a block
// row when it is at most 4 blocks wide.
func (a *Atom) unitsPerAtom() int {
	nb := (a.dim() + a.band() - 1) / a.band()
	return nb * nb * ((nb + 3) / 4)
}

// unitsHeld is the number of half block rows the atom holds a block of.
func (a *Atom) unitsHeld() int {
	n := 0
	for _, w := range a.held() {
		n += bits.OnesCount16(halfMask(w))
	}
	return n
}

// TestHalfMask holds the bit gather to its definition: bit 2·by+half for
// each nibble of the word that is not zero.
func TestHalfMask(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		w := rng.Uint64() & rng.Uint64() & rng.Uint64() & rng.Uint64()
		if i < 64 {
			w = 1 << i
		}
		var want uint16
		for n := 0; n < 16; n++ {
			if w>>(4*n)&0xf != 0 {
				want |= 1 << n
			}
		}
		if got := halfMask(w); got != want {
			t.Fatalf("halfMask(%#x) = %#x, want %#x", w, got, want)
		}
	}
}

// TestHasBoxMatchesCovers holds the in-place test to the set it stands
// for: a block set holds a box's blocks exactly when it covers the set add
// builds for the box, for blocks of one to three samples a side.
func TestHasBoxMatchesCovers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20000; i++ {
		w := 1 + rng.Intn(3)
		var b Blocks
		for j := range b {
			b[j] = rng.Uint64() | rng.Uint64() | rng.Uint64()
		}
		var lo, hi [3]int
		for ax := range lo {
			lo[ax] = rng.Intn(8 * w)
			hi[ax] = lo[ax] + rng.Intn(8*w-lo[ax])
		}
		var box Blocks
		box.add(w, lo[0], hi[0], lo[1], hi[1], lo[2], hi[2])
		if got, want := b.hasBox(w, lo[0], hi[0], lo[1], hi[1], lo[2], hi[2]), b.covers(&box); got != want {
			t.Fatalf("blocks %x, width %d, box %v..%v: hasBox %v, covers %v", b, w, lo, hi, got, want)
		}
	}
}

// inUse is the number of the arena's units taken and not handed back.
func (r *RowArena) inUse() int { return int(r.carved) - len(r.free) }

// holdsUnit reports whether a holds a block of the half block row of
// stored sample (x, y, z).
func (a *Atom) holdsUnit(x, y, z int) bool {
	w := a.band()
	return halfMask(a.held()[z/w])>>(2*(y/w)+x/(4*w))&1 != 0
}

// holds reports whether the blocks of b hold sample (x, y, z) of atom a.
func (a *Atom) holds(b *Blocks, x, y, z int) bool {
	w := a.band()
	return b[z/w]>>(8*(y/w)+x/w)&1 != 0
}

// count is the number of blocks in b.
func (b *Blocks) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// TestFillRowsMatchesFill holds the block-masked fill to the whole-atom one,
// bit for bit: random 3-D sets of blocks filled in any order and grouping,
// into a buffer that held something else, carry the values SampleGhost gives
// them, and a sample not asked for is never written. Sides 4 to 20 cover
// blocks of one sample (dim ≤ 8) and of two and three samples a side.
func TestFillRowsMatchesFill(t *testing.T) {
	f := New(5, 48, 0)
	s := testSpace()
	rng := rand.New(rand.NewSource(3))
	for _, side := range []int{4, 8, 12, 20} {
		for _, ghost := range []int{0, 2, 4} {
			ac := geom.AtomCoord{I: uint32(rng.Intn(8)), J: uint32(rng.Intn(8)), K: 7}
			want := f.SampleGhost(5, s, ac, side, ghost)
			a, rows := poisoned(f, 5, s, ac, side, ghost)
			d := a.dim()
			for round := 0; *a.held() != a.all(); round++ {
				var mask Blocks
				for i := range mask {
					mask[i] = rng.Uint64() & rng.Uint64() & rng.Uint64()
				}
				a.FillBlocks(mask, rows)
				if a.filled != nil && a.filled.rows != rows {
					t.Fatalf("side %d ghost %d: the first fill did not use the arena it was given", side, ghost)
				}
				if rows.inUse() != a.unitsHeld() {
					t.Fatalf("side %d ghost %d round %d: %d units taken for %d half rows held", side, ghost, round, rows.inUse(), a.unitsHeld())
				}
				for z := 0; z < d; z++ {
					for y := 0; y < d; y++ {
						for x := 0; x < d; x++ {
							if !a.holdsUnit(x, y, z) {
								continue // no storage: nothing to read
							}
							filled := a.holds(a.held(), x, y, z)
							for c, got := range a.sample(x, y, z) {
								if w := want.sample(x, y, z)[c]; filled && math.Float64bits(got) != math.Float64bits(w) ||
									!filled && !math.IsNaN(got) {
									t.Fatalf("side %d ghost %d round %d: sample (%d,%d,%d) filled %v holds %v in component %d, the whole fill %v",
										side, ghost, round, x, y, z, filled, got, c, w)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestInterpolateReadsOnlyFilledRows: evaluating on a frame fills the
// samples its stencil reads and reads no other (the unfilled samples are
// NaN), and FillBlocks(Missing(...)) fills in advance every sample that a set
// of evaluations then reads, so those evaluations write nothing — the
// engine fills a batch's blocks once, then evaluates. Where a block is
// one sample, what one evaluation asks for is its stencil's cube, n³
// samples, and KernelNone's one nearest sample. Every value equals the one
// on a whole atom, bit for bit.
func TestInterpolateReadsOnlyFilledRows(t *testing.T) {
	s := testSpace()
	rng := rand.New(rand.NewSource(11))
	f := New(17, 24, 0)
	for _, tc := range kernelCases() {
		for _, k := range allKernels {
			lazy, rows := poisoned(f, tc.atom.step(), s, tc.ac, tc.atom.geo.side, tc.atom.geo.ghost)
			lazy.FillBlocks(Blocks{}, rows) // nothing: no unit is taken
			if lazy.unitsHeld() != 0 || rows.inUse() != 0 {
				t.Fatalf("%s: an empty fill took %d units", tc.name, rows.inUse())
			}
			lazy.FillBlocks(Blocks{1}, rows) // one block: from here on the frame fills into the NaNs
			for i := 0; i < 50; i++ {
				p := positionIn(rng, s, tc.ac)
				if got, want := Interpolate(k, lazy, s, tc.ac, p), Interpolate(k, tc.atom, s, tc.ac, p); got != want {
					t.Fatalf("%s %v at %+v: %v on the lazily filled frame, %v on the whole atom", tc.name, k, p, got, want)
				}
			}

			ahead, rows := poisoned(f, tc.atom.step(), s, tc.ac, tc.atom.geo.side, tc.atom.geo.ghost)
			pts := make([]geom.Position, 1+rng.Intn(6))
			for i := range pts {
				pts[i] = positionIn(rng, s, tc.ac)
			}
			if ahead.band() == 1 {
				n := ahead.width(k)
				if k == KernelNone {
					n = 1
				}
				one := f.Frame(tc.atom.step(), s, tc.ac, tc.atom.geo.side, tc.atom.geo.ghost)
				m := one.Missing(k, tc.ac, pts[:1])
				Interpolate(k, one, s, tc.ac, pts[0])
				if m.count() != n*n*n || *one.held() != m {
					t.Fatalf("%s %v at %+v: %d samples missing, %d filled by the evaluation; want the stencil's %d, both the same",
						tc.name, k, pts[0], m.count(), one.held().count(), n*n*n)
				}
			}
			ahead.FillBlocks(ahead.Missing(k, tc.ac, pts), rows)
			if m := ahead.Missing(k, tc.ac, pts); m != (Blocks{}) {
				t.Fatalf("%s %v: blocks %x still missing after their fill", tc.name, k, m)
			}
			before := *ahead.held()
			for _, p := range pts {
				if got, want := Interpolate(k, ahead, s, tc.ac, p), Interpolate(k, tc.atom, s, tc.ac, p); got != want {
					t.Fatalf("%s %v at %+v: %v on the frame filled ahead, %v on the whole atom", tc.name, k, p, got, want)
				}
			}
			if *ahead.held() != before {
				t.Fatalf("%s %v: evaluating filled blocks %x beyond the %x filled ahead", tc.name, k, *ahead.held(), before)
			}
		}
	}
}

// TestPaperAtomHoldsStencilRows: on a paper-sized atom (64³ samples and a
// halo of 4, so 72³ and blocks of 9³) one Lag4 point reads a 4³ cube that
// spans at most two blocks a side, so the atom holds at most 8 half block
// rows of 9·9·36 samples, and at most 4, ≈ 0.37 MB, when the cube's x
// range lies on one side of the midpoint (stored sample 36): 3 of the 69
// stencil starts cross it. The whole atom is 11.9 MB.
func TestPaperAtomHoldsStencilRows(t *testing.T) {
	f := New(5, 48, 0)
	s := testSpace()
	rng := rand.New(rand.NewSource(8))
	const unitBytes = 9 * 9 * 36 * Components * 8
	check := func(ac geom.AtomCoord, p geom.Position) (units int) {
		t.Helper()
		a := f.Frame(2, s, ac, 64, 4)
		got := Interpolate(KernelLag4, a, s, ac, p)
		x, _, _, n := a.stencil(KernelLag4, ac, p)
		most := 4
		if x < a.mid() && a.mid() < x+n {
			most = 8
		}
		if units, b := a.unitsHeld(), a.filled.rows.Bytes(); units > most || units == 0 || b != units*unitBytes {
			t.Fatalf("one Lag4 point at %+v (x from %d): %d half rows held in %d B; want at most %d of %d B, and no more memory", p, x, units, b, most, unitBytes)
		}
		// The same point on a frame filled ahead by the engine's path.
		ahead := f.Frame(2, s, ac, 64, 4)
		ahead.FillBlocks(ahead.Missing(KernelLag4, ac, []geom.Position{p}), nil)
		if want := Interpolate(KernelLag4, ahead, s, ac, p); got != want || *ahead.held() != *a.held() {
			t.Fatalf("at %+v: %v lazily, %v filled ahead; blocks %x and %x", p, got, want, *a.held(), *ahead.held())
		}
		return a.unitsHeld()
	}
	for range 4 {
		ac := geom.AtomCoord{I: uint32(rng.Intn(8)), J: uint32(rng.Intn(8)), K: uint32(rng.Intn(8))}
		check(ac, positionIn(rng, s, ac))
	}
	// Stencils from stored samples (13 or 35, 7, 7): y and z span blocks 0
	// and 1, and x lies in the lower half, or crosses into the upper one.
	ac := geom.AtomCoord{I: 5, J: 2, K: 6}
	atomLen := float64(s.AtomSide) * s.VoxelSize()
	at := func(c uint32, sample float64) float64 {
		return float64(float64(c)*atomLen) + float64((sample+0.5)*atomLen/64)
	}
	if n := check(ac, geom.Position{X: at(ac.I, 10.5), Y: at(ac.J, 4.5), Z: at(ac.K, 4.5)}); n != 4 {
		t.Fatalf("a stencil on one side of the midpoint, over two blocks in y and z: %d half rows, want 4 (%d B)", n, 4*unitBytes)
	}
	if n := check(ac, geom.Position{X: at(ac.I, 32.5), Y: at(ac.J, 4.5), Z: at(ac.K, 4.5)}); n != 8 {
		t.Fatalf("the same across the midpoint: %d half rows, want 8", n)
	}
	if whole := 72 * 72 * 72 * Components * 8; whole/(4*unitBytes) < 31 {
		t.Fatalf("a whole atom is %d B, 4 half rows %d B", whole, 4*unitBytes)
	}
}

// TestRowsHoldPeakRows: an arena takes a freed unit back before it carves
// another, so under any churn of fills and releases it has carved exactly
// the most half rows its atoms held at once, and holds no more sample
// memory than those units and the rest of its last slab. Every unit is
// either held by an atom or free, and a released atom's units serve the
// next fill.
func TestRowsHoldPeakRows(t *testing.T) {
	f := New(5, 8, 0)
	s := testSpace()
	rng := rand.New(rand.NewSource(13))
	for _, side := range []int{4, 8, 12} {
		rows := new(RowArena)
		atoms := make([]*Atom, 24)
		peak := 0
		for round := 0; round < 3000; round++ {
			i := rng.Intn(len(atoms))
			ac := geom.AtomCoord{I: uint32(rng.Intn(8)), J: uint32(rng.Intn(8)), K: uint32(rng.Intn(8))}
			switch a := atoms[i]; {
			case a == nil:
				atoms[i] = f.Frame(round%4, s, ac, side, 0)
			case rng.Intn(5) == 0:
				f.Geometry(s, side, 0).FrameInto(a, round%4, ac) // released and taken over
			default:
				pts := make([]geom.Position, 1+rng.Intn(3))
				for p := range pts {
					pts[p] = positionIn(rng, s, a.coord())
				}
				a.FillBlocks(a.Missing(KernelLag4, a.coord(), pts), rows)
			}
			held := 0
			for _, a := range atoms {
				if a != nil {
					held += a.unitsHeld()
				}
			}
			peak = max(peak, held)
			if rows.inUse() != held || int(rows.carved) != peak {
				t.Fatalf("side %d round %d: %d units in use, %d carved; the atoms hold %d, at most %d at once", side, round, rows.inUse(), rows.carved, held, peak)
			}
			slab := 8 * rows.n << rows.shift
			if b := rows.Bytes(); b > peak*8*rows.n+slab-8*rows.n || b < peak*8*rows.n {
				t.Fatalf("side %d round %d: %d B for %d units of %d B, slabs of %d B", side, round, b, peak, 8*rows.n, slab)
			}
		}
		if peak == 0 || len(rows.free) == 0 {
			t.Fatalf("side %d: peak %d, %d free: the churn recycled nothing", side, peak, len(rows.free))
		}
	}
}

// TestSharedAtomReadOnly: once FillBlocks(Missing(...)) has filled what a
// set of evaluations reads, goroutines evaluating on the atom at once only
// read it — Atom's contract for sharing a filled atom, which -race checks
// here (make race-obs) — and each gets the whole atom's value.
func TestSharedAtomReadOnly(t *testing.T) {
	f := New(17, 24, 0)
	s := testSpace()
	rng := rand.New(rand.NewSource(21))
	for _, ghost := range []int{0, 4} {
		ac := geom.AtomCoord{I: 3, J: 1, K: 6}
		whole := f.SampleGhost(1, s, ac, 12, ghost)
		a := f.Frame(1, s, ac, 12, ghost)
		pts := make([]geom.Position, 64)
		for i := range pts {
			pts[i] = positionIn(rng, s, ac)
		}
		a.FillBlocks(a.Missing(KernelLag6, ac, pts), new(RowArena))
		var wg sync.WaitGroup
		for w := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < len(pts); i += 4 {
					if got, want := Interpolate(KernelLag6, a, s, ac, pts[i]), Interpolate(KernelLag6, whole, s, ac, pts[i]); got != want {
						t.Errorf("ghost %d at %+v: %v on the shared atom, %v on the whole one", ghost, pts[i], got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

func TestNominalAtomBytes(t *testing.T) {
	if NominalAtomBytes != 8<<20 {
		t.Fatalf("nominal atom size = %d, want 8 MiB as in §III.A", NominalAtomBytes)
	}
}

func TestKernelStencilRadii(t *testing.T) {
	cases := map[Kernel]int{
		KernelNone:      0,
		KernelTrilinear: 1,
		KernelLag4:      2,
		KernelLag6:      3,
		KernelLag8:      4,
	}
	for k, want := range cases {
		if got := k.StencilRadius(); got != want {
			t.Errorf("%v radius = %d, want %d", k, got, want)
		}
	}
}

func TestKernelCostOrdering(t *testing.T) {
	ks := []Kernel{KernelNone, KernelTrilinear, KernelLag4, KernelLag6, KernelLag8}
	for i := 1; i < len(ks); i++ {
		if ks[i].CostWeight() <= ks[i-1].CostWeight() {
			t.Fatalf("cost weight not increasing: %v=%g vs %v=%g",
				ks[i-1], ks[i-1].CostWeight(), ks[i], ks[i].CostWeight())
		}
	}
}

func TestKernelStrings(t *testing.T) {
	for _, k := range []Kernel{KernelNone, KernelTrilinear, KernelLag4, KernelLag6, KernelLag8, Kernel(99)} {
		if k.String() == "" {
			t.Fatalf("empty String for kernel %d", int(k))
		}
	}
}

// Interpolation accuracy: higher-order kernels should reproduce the smooth
// analytic field more accurately at the atom center.
func TestInterpolationAccuracyImproves(t *testing.T) {
	f := New(21, 24, 0)
	s := testSpace()
	ac := geom.AtomCoord{I: 3, J: 3, K: 3}
	a := f.SampleGhost(0, s, ac, 16, 0)
	p := s.Center(ac)
	p.X += 0.3 * s.VoxelSize()
	p.Y -= 0.2 * s.VoxelSize()
	truth := f.Eval(0, p)

	errFor := func(k Kernel) float64 {
		got := Interpolate(k, a, s, ac, p)
		e := 0.0
		for c := 0; c < 3; c++ {
			e += math.Abs(got[c] - truth[c])
		}
		return e
	}
	e2 := errFor(KernelTrilinear)
	e8 := errFor(KernelLag8)
	if e8 > e2*1.05 {
		t.Fatalf("Lag8 error %g not better than trilinear %g", e8, e2)
	}
}

// Property: interpolating exactly at a sample point reproduces the sample
// (Lagrange basis is interpolating).
func TestInterpolateAtSamplePoint(t *testing.T) {
	f := New(9, 16, 0)
	s := testSpace()
	ac := geom.AtomCoord{I: 1, J: 1, K: 1}
	a := f.SampleGhost(0, s, ac, 8, 0)
	atomLen := float64(s.AtomSide) * s.VoxelSize()
	h := atomLen / 8
	for _, idx := range [][3]int{{2, 3, 4}, {0, 0, 0}, {7, 7, 7}, {4, 4, 4}} {
		p := geom.Position{
			X: float64(float64(ac.I)*atomLen) + float64((float64(idx[0])+0.5)*h),
			Y: float64(float64(ac.J)*atomLen) + float64((float64(idx[1])+0.5)*h),
			Z: float64(float64(ac.K)*atomLen) + float64((float64(idx[2])+0.5)*h),
		}
		want := a.At(idx[0], idx[1], idx[2])
		for _, k := range []Kernel{KernelTrilinear, KernelLag4, KernelNone} {
			got := Interpolate(k, a, s, ac, p)
			for c := 0; c < Components; c++ {
				if math.Abs(got[c]-want[c]) > 1e-9 {
					t.Fatalf("%v at sample %v component %d = %g, want %g", k, idx, c, got[c], want[c])
				}
			}
		}
	}
}

// Property: interpolation output is always finite for positions inside the
// atom, for every kernel.
func TestInterpolateFinite(t *testing.T) {
	f := New(13, 16, 0)
	s := testSpace()
	ac := geom.AtomCoord{I: 2, J: 2, K: 2}
	a := f.SampleGhost(0, s, ac, 8, 0)
	atomLen := float64(s.AtomSide) * s.VoxelSize()
	g := func(fx, fy, fz float64, kk uint8) bool {
		frac := func(v float64) float64 { v = math.Abs(v); return v - math.Floor(v) }
		p := geom.Position{
			X: float64(float64(ac.I)*atomLen) + float64(frac(fx)*atomLen),
			Y: float64(float64(ac.J)*atomLen) + float64(frac(fy)*atomLen),
			Z: float64(float64(ac.K)*atomLen) + float64(frac(fz)*atomLen),
		}
		k := Kernel(int(kk) % 5)
		v := Interpolate(k, a, s, ac, p)
		for _, c := range v {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSampleAtom8(b *testing.B) {
	f := New(1, 48, 0)
	s := testSpace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.SampleGhost(i%31, s, geom.AtomCoord{I: uint32(i) % 8, J: 0, K: 0}, 8, 0)
	}
}

// BenchmarkFillFrame8 is BenchmarkSampleAtom8 on the path a cache miss
// takes at capacity: the samples go into the rows of an evicted atom.
func BenchmarkFillFrame8(b *testing.B) {
	f := New(1, 48, 0)
	s := testSpace()
	rows := new(RowArena)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := f.Frame(i%31, s, geom.AtomCoord{I: uint32(i) % 8, J: 0, K: 0}, 8, 0)
		a.FillBlocks(a.all(), rows)
		a.Release()
	}
}

// BenchmarkFillStencil8 is BenchmarkFillFrame8 for what a one-point Lag4
// batch fills: the samples of one stencil, an eighth of the atom.
func BenchmarkFillStencil8(b *testing.B) {
	f := New(1, 48, 0)
	s := testSpace()
	rows := new(RowArena)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ac := geom.AtomCoord{I: uint32(i) % 8, J: 0, K: 0}
		a := f.Frame(i%31, s, ac, 8, 0)
		a.FillBlocks(a.Missing(KernelLag4, ac, []geom.Position{s.Center(ac)}), rows)
		a.Release()
	}
}

// BenchmarkFillStencil72 is BenchmarkFillStencil8 on a paper-sized atom,
// 64³ samples and a halo of 4 (blocks of 9³): one Lag4 point at the atom's
// centre, whose 4³ cube spans two blocks a side, so the fill writes 8
// blocks, 18³ samples.
func BenchmarkFillStencil72(b *testing.B) {
	f := New(1, 48, 0)
	s := testSpace()
	rows := new(RowArena)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ac := geom.AtomCoord{I: uint32(i) % 8, J: 0, K: 0}
		a := f.Frame(i%31, s, ac, 64, 4)
		a.FillBlocks(a.Missing(KernelLag4, ac, []geom.Position{s.Center(ac)}), rows)
		a.Release()
	}
}

// BenchmarkInterpolateLag4 prices one Lag4 evaluation on a filled 8³ atom:
// at its centre, where the stencil's x range (samples 2..5) crosses the
// midpoint, so each of its 16 lines is read from two half rows, and two
// samples lower in x, where it (samples 0..3) lies in the lower half.
func BenchmarkInterpolateLag4(b *testing.B) {
	f := New(1, 48, 0)
	s := testSpace()
	ac := geom.AtomCoord{I: 1, J: 1, K: 1}
	a := f.SampleGhost(0, s, ac, 8, 0)
	atomLen := float64(s.AtomSide) * s.VoxelSize()
	for _, bc := range []struct {
		name string
		sx   float64 // the point's x in sample coordinates
	}{{"crossing", 3.5}, {"half", 1.5}} {
		b.Run(bc.name, func(b *testing.B) {
			p := s.Center(ac)
			p.X = float64(float64(ac.I)*atomLen) + float64((bc.sx+0.5)*atomLen/8)
			if x, _, _, n := a.stencil(KernelLag4, ac, p); (x < a.mid() && a.mid() < x+n) != (bc.name == "crossing") {
				b.Fatalf("%s: stencil from x %d", bc.name, x)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Interpolate(KernelLag4, a, s, ac, p)
			}
		})
	}
}

func TestSampleGhostLayout(t *testing.T) {
	f := New(5, 16, 0)
	s := testSpace()
	ac := geom.AtomCoord{I: 1, J: 1, K: 1}
	a := f.SampleGhost(3, s, ac, 4, 2)
	if a.geo.ghost != 2 || a.geo.side != 4 {
		t.Fatalf("ghost atom shape %d/%d", a.geo.side, a.geo.ghost)
	}
	if *a.held() != a.all() || a.filled.rows.Bytes() != 8*8*8*Components*8 {
		t.Fatalf("halo atom holds blocks %x in %d B, want every block of (4+2·2)³·4 samples", *a.held(), a.filled.rows.Bytes())
	}
	// Interior samples must agree with the no-halo atom.
	plain := f.SampleGhost(3, s, ac, 4, 0)
	for i := 0; i < 4; i++ {
		if a.At(i, i, i) != plain.At(i, i, i) {
			t.Fatalf("interior sample (%d,%d,%d) differs with halo", i, i, i)
		}
	}
	// Halo samples must equal the field at the neighbour's positions.
	atomLen := float64(s.AtomSide) * s.VoxelSize()
	h := atomLen / 4
	p := geom.Position{
		X: float64(ac.I)*atomLen + (-1+0.5)*h,
		Y: float64(ac.J)*atomLen + 0.5*h,
		Z: float64(ac.K)*atomLen + 0.5*h,
	}
	want := f.Eval(3, p)
	got := a.At(-1, 0, 0)
	for c := 0; c < Components; c++ {
		if math.Abs(got[c]-want[c]) > 1e-12 {
			t.Fatalf("halo sample component %d = %g, want %g", c, got[c], want[c])
		}
	}
}

func TestGhostImprovesBoundaryInterpolation(t *testing.T) {
	// A Lag6 evaluation right at an atom face: with a halo the stencil
	// stays centred; without it the stencil is clamped one-sided and
	// loses accuracy.
	f := New(21, 24, 0)
	s := testSpace()
	ac := geom.AtomCoord{I: 3, J: 3, K: 3}
	atomLen := float64(s.AtomSide) * s.VoxelSize()
	p := geom.Position{
		X: float64(ac.I)*atomLen + 0.2*s.VoxelSize(), // just inside the low-x face
		Y: (float64(ac.J) + 0.5) * atomLen,
		Z: (float64(ac.K) + 0.5) * atomLen,
	}
	truth := f.Eval(0, p)
	errOf := func(a *Atom) float64 {
		got := Interpolate(KernelLag6, a, s, ac, p)
		e := 0.0
		for c := 0; c < 3; c++ {
			e += math.Abs(got[c] - truth[c])
		}
		return e
	}
	plain := errOf(f.SampleGhost(0, s, ac, 12, 0))
	halo := errOf(f.SampleGhost(0, s, ac, 12, 3))
	if halo > plain {
		t.Fatalf("halo did not help at the boundary: %g vs %g", halo, plain)
	}
	if halo > 0.05 {
		t.Fatalf("halo boundary error still large: %g", halo)
	}
}

func TestSampleGhostNegativeClamped(t *testing.T) {
	f := New(5, 16, 0)
	a := f.SampleGhost(0, testSpace(), geom.AtomCoord{I: 0, J: 0, K: 0}, 4, -3)
	if a.geo.ghost != 0 {
		t.Fatalf("negative ghost not clamped: %d", a.geo.ghost)
	}
}
