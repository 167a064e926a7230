package field

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

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
	if a.Side != 8 {
		t.Fatalf("Side = %d, want 8", a.Side)
	}
	if len(a.Data) != 8*8*8*Components {
		t.Fatalf("Data len = %d", len(a.Data))
	}
}

func TestSampleDefaultSide(t *testing.T) {
	f := New(5, 16, 0)
	a := f.SampleGhost(0, testSpace(), geom.AtomCoord{I: 0, J: 0, K: 0}, 0, 0)
	if a.Side != 8 {
		t.Fatalf("default side = %d, want 8", a.Side)
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
									if got := a.Data[idx+c]; math.Float64bits(got) != math.Float64bits(w) {
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
					if idx != len(a.Data) {
						t.Fatalf("side %d ghost %d: %d values stored, %d checked", side, ghost, len(a.Data), idx)
					}
				}
			}
		}
	}
}

// TestFrameLifecycle walks one frame through its states: unfilled and
// holding no samples, filled on first use into the buffer it is given
// (whatever that held), released, and filled again with the same values.
func TestFrameLifecycle(t *testing.T) {
	f := New(5, 48, 0)
	s := testSpace()
	ac := geom.AtomCoord{I: 1, J: 2, K: 3}
	want := f.SampleGhost(3, s, ac, 4, 2)

	a := f.Frame(3, s, ac, 4, 2)
	if a.Filled() || len(a.Data) != 0 {
		t.Fatalf("a new frame holds %d samples", len(a.Data))
	}
	dirty := make([]float64, len(want.Data)+5)
	for i := range dirty {
		dirty[i] = math.NaN()
	}
	a.Fill(dirty)
	if !a.Filled() || &a.Data[0] != &dirty[0] {
		t.Fatal("Fill did not use the buffer it was given")
	}
	same := func(stage string) {
		t.Helper()
		if len(a.Data) != len(want.Data) {
			t.Fatalf("%s: %d values, want %d", stage, len(a.Data), len(want.Data))
		}
		for i, w := range want.Data {
			if math.Float64bits(a.Data[i]) != math.Float64bits(w) {
				t.Fatalf("%s: value %d is %v, want %v", stage, i, a.Data[i], w)
			}
		}
	}
	same("filled into a dirty buffer")
	a.Fill(nil) // filled already: keeps its buffer
	if &a.Data[0] != &dirty[0] {
		t.Fatal("Fill replaced the samples of a filled atom")
	}
	if buf := a.Release(); &buf[0] != &dirty[0] || a.Filled() {
		t.Fatal("Release did not hand the buffer back")
	}
	if got, w := Interpolate(KernelLag4, a, s, ac, s.Center(ac)), Interpolate(KernelLag4, want, s, ac, s.Center(ac)); got != w {
		t.Fatalf("interpolation on a released frame: %v, want %v", got, w)
	}
	if !a.Filled() || *a.held() == a.all() {
		t.Fatalf("first use filled blocks %x of %x: want its stencil's alone", *a.held(), a.all())
	}
	a.Fill(nil)
	same("refilled by first use, then completed")
	small := make([]float64, 3)
	a.Release()
	a.Fill(small) // too small a buffer is left alone
	same("filled past a buffer that is too small")
	if &a.Data[0] == &small[0] {
		t.Fatal("Fill used a buffer smaller than the atom")
	}

	// The handle taken over for another atom, filled as it is: nothing of
	// the atom it was is left, and it evaluates as a frame of its own does.
	bc := geom.AtomCoord{I: 3, J: 0, K: 1}
	if b := f.FrameInto(a, 2, s, bc, 4, 0); b != a || a.Filled() || a.Ghost != 0 {
		t.Fatalf("FrameInto returned %p for %p, filled %v, halo %d; want the handle itself, unfilled, as described", b, a, a.Filled(), a.Ghost)
	}
	want = f.SampleGhost(2, s, bc, 4, 0)
	a.Fill(nil)
	same("taken over for another atom")
}

// TestHandleCarriesNoBlocks: a replay keeps thousands of atoms resident
// that it never fills, so the handle stays the size it was with a one-word
// row mask; the 64-byte block set is allocated at the handle's first fill
// and kept, cleared, when the handle is released and taken over.
func TestHandleCarriesNoBlocks(t *testing.T) {
	if n := reflect.TypeFor[Atom]().Size(); n > 96 {
		t.Fatalf("an atom handle is %d bytes, want at most 96", n)
	}
	f := New(5, 8, 0)
	s := testSpace()
	a := f.Frame(0, s, geom.AtomCoord{}, 8, 0)
	if a.filled != nil {
		t.Fatal("a new frame carries a block set")
	}
	a.Fill(nil)
	set := a.filled
	a.Release()
	if f.FrameInto(a, 1, s, geom.AtomCoord{I: 1}, 8, 0); a.filled != set || *set != (Blocks{}) {
		t.Fatalf("released and taken over: block set %p %x, want %p kept and empty", a.filled, *a.held(), set)
	}
}

// poisoned returns a frame of atom ac filled into nothing yet, with a
// sample buffer of NaNs it will fill into: a read of a sample it has not
// filled yields NaN, which no evaluation can mistake for a sample.
func poisoned(f *Field, step int, s geom.Space, ac geom.AtomCoord, side, ghost int) (*Atom, []float64) {
	a := f.Frame(step, s, ac, side, ghost)
	d := a.dim()
	buf := make([]float64, d*d*d*Components)
	for i := range buf {
		buf[i] = math.NaN()
	}
	return a, buf
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
			a, buf := poisoned(f, 5, s, ac, side, ghost)
			d := a.dim()
			for round := 0; *a.held() != a.all(); round++ {
				var mask Blocks
				for i := range mask {
					mask[i] = rng.Uint64() & rng.Uint64() & rng.Uint64()
				}
				a.FillBlocks(mask, buf)
				if &a.Data[0] != &buf[0] {
					t.Fatalf("side %d ghost %d: the first fill did not use the buffer it was given", side, ghost)
				}
				i := 0
				for z := 0; z < d; z++ {
					for y := 0; y < d; y++ {
						for x := 0; x < d; x++ {
							filled := a.holds(a.held(), x, y, z)
							for end := i + Components; i < end; i++ {
								if filled && math.Float64bits(a.Data[i]) != math.Float64bits(want.Data[i]) ||
									!filled && !math.IsNaN(a.Data[i]) {
									t.Fatalf("side %d ghost %d round %d: sample (%d,%d,%d) filled %v holds %v at %d, the whole fill %v",
										side, ghost, round, x, y, z, filled, a.Data[i], i, want.Data[i])
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
// of evaluations then reads, so sharing the atom among goroutines writes
// nothing — the engine's contract with its compute pool. Where a block is
// one sample, what one evaluation asks for is its stencil's cube, n³
// samples, and KernelNone's one nearest sample. Every value equals the one
// on a whole atom, bit for bit.
func TestInterpolateReadsOnlyFilledRows(t *testing.T) {
	s := testSpace()
	rng := rand.New(rand.NewSource(11))
	f := New(17, 24, 0)
	for _, tc := range kernelCases() {
		for _, k := range allKernels {
			lazy, buf := poisoned(f, tc.atom.step, s, tc.ac, tc.atom.Side, tc.atom.Ghost)
			lazy.FillBlocks(Blocks{}, buf) // nothing: the buffer is not taken
			if lazy.Filled() {
				t.Fatalf("%s: an empty fill took a buffer", tc.name)
			}
			lazy.FillBlocks(Blocks{1}, buf) // one block: from here on the frame fills into the NaNs
			for i := 0; i < 50; i++ {
				p := positionIn(rng, s, tc.ac)
				if got, want := Interpolate(k, lazy, s, tc.ac, p), Interpolate(k, tc.atom, s, tc.ac, p); got != want {
					t.Fatalf("%s %v at %+v: %v on the lazily filled frame, %v on the whole atom", tc.name, k, p, got, want)
				}
			}

			ahead, buf := poisoned(f, tc.atom.step, s, tc.ac, tc.atom.Side, tc.atom.Ghost)
			pts := make([]geom.Position, 1+rng.Intn(6))
			for i := range pts {
				pts[i] = positionIn(rng, s, tc.ac)
			}
			if ahead.band() == 1 {
				n := ahead.width(k)
				if k == KernelNone {
					n = 1
				}
				one := f.Frame(tc.atom.step, s, tc.ac, tc.atom.Side, tc.atom.Ghost)
				m := one.Missing(k, s, tc.ac, pts[:1])
				Interpolate(k, one, s, tc.ac, pts[0])
				if m.count() != n*n*n || *one.held() != m {
					t.Fatalf("%s %v at %+v: %d samples missing, %d filled by the evaluation; want the stencil's %d, both the same",
						tc.name, k, pts[0], m.count(), one.held().count(), n*n*n)
				}
			}
			ahead.FillBlocks(ahead.Missing(k, s, tc.ac, pts), buf)
			if m := ahead.Missing(k, s, tc.ac, pts); m != (Blocks{}) {
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
// takes at capacity: the samples go into the buffer of an evicted atom.
func BenchmarkFillFrame8(b *testing.B) {
	f := New(1, 48, 0)
	s := testSpace()
	var buf []float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := f.Frame(i%31, s, geom.AtomCoord{I: uint32(i) % 8, J: 0, K: 0}, 8, 0)
		a.Fill(buf)
		buf = a.Release()
	}
}

// BenchmarkFillStencil8 is BenchmarkFillFrame8 for what a one-point Lag4
// batch fills: the samples of one stencil, an eighth of the atom.
func BenchmarkFillStencil8(b *testing.B) {
	f := New(1, 48, 0)
	s := testSpace()
	var buf []float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ac := geom.AtomCoord{I: uint32(i) % 8, J: 0, K: 0}
		a := f.Frame(i%31, s, ac, 8, 0)
		a.FillBlocks(a.Missing(KernelLag4, s, ac, []geom.Position{s.Center(ac)}), buf)
		buf = a.Release()
	}
}

func BenchmarkInterpolateLag4(b *testing.B) {
	f := New(1, 48, 0)
	s := testSpace()
	ac := geom.AtomCoord{I: 1, J: 1, K: 1}
	a := f.SampleGhost(0, s, ac, 8, 0)
	p := s.Center(ac)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Interpolate(KernelLag4, a, s, ac, p)
	}
}

func TestSampleGhostLayout(t *testing.T) {
	f := New(5, 16, 0)
	s := testSpace()
	ac := geom.AtomCoord{I: 1, J: 1, K: 1}
	a := f.SampleGhost(3, s, ac, 4, 2)
	if a.Ghost != 2 || a.Side != 4 {
		t.Fatalf("ghost atom shape %d/%d", a.Side, a.Ghost)
	}
	if len(a.Data) != 8*8*8*Components {
		t.Fatalf("halo data len = %d, want (4+2·2)³·4", len(a.Data))
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
	if a.Ghost != 0 {
		t.Fatalf("negative ghost not clamped: %d", a.Ghost)
	}
}
