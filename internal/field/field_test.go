package field

import (
	"math"
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
	a := f.Sample(0, s, geom.AtomCoord{I: 1, J: 2, K: 3}, 8)
	if a.Side != 8 {
		t.Fatalf("Side = %d, want 8", a.Side)
	}
	if len(a.Data) != 8*8*8*Components {
		t.Fatalf("Data len = %d", len(a.Data))
	}
	if a.Bytes() != int64(len(a.Data)*8) {
		t.Fatalf("Bytes = %d", a.Bytes())
	}
}

func TestSampleDefaultSide(t *testing.T) {
	f := New(5, 16, 0)
	a := f.Sample(0, testSpace(), geom.AtomCoord{I: 0, J: 0, K: 0}, 0)
	if a.Side != 8 {
		t.Fatalf("default side = %d, want 8", a.Side)
	}
}

func TestSampleMatchesEval(t *testing.T) {
	f := New(5, 16, 0)
	s := testSpace()
	ac := geom.AtomCoord{I: 2, J: 1, K: 0}
	a := f.Sample(7, s, ac, 4)
	// Sample (1,2,3) sits at a known physical position.
	atomLen := float64(s.AtomSide) * s.VoxelSize()
	h := atomLen / 4
	p := geom.Position{
		X: float64(ac.I)*atomLen + 1.5*h,
		Y: float64(ac.J)*atomLen + 2.5*h,
		Z: float64(ac.K)*atomLen + 3.5*h,
	}
	want := f.Eval(7, p)
	got := a.At(1, 2, 3)
	for c := 0; c < Components; c++ {
		if math.Abs(got[c]-want[c]) > 1e-12 {
			t.Fatalf("sample (1,2,3) component %d = %g, want %g", c, got[c], want[c])
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
	a := f.Sample(0, s, ac, 16)
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
	a := f.Sample(0, s, ac, 8)
	atomLen := float64(s.AtomSide) * s.VoxelSize()
	h := atomLen / 8
	for _, idx := range [][3]int{{2, 3, 4}, {0, 0, 0}, {7, 7, 7}, {4, 4, 4}} {
		p := geom.Position{
			X: float64(ac.I)*atomLen + (float64(idx[0])+0.5)*h,
			Y: float64(ac.J)*atomLen + (float64(idx[1])+0.5)*h,
			Z: float64(ac.K)*atomLen + (float64(idx[2])+0.5)*h,
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
	a := f.Sample(0, s, ac, 8)
	atomLen := float64(s.AtomSide) * s.VoxelSize()
	g := func(fx, fy, fz float64, kk uint8) bool {
		frac := func(v float64) float64 { v = math.Abs(v); return v - math.Floor(v) }
		p := geom.Position{
			X: float64(ac.I)*atomLen + frac(fx)*atomLen,
			Y: float64(ac.J)*atomLen + frac(fy)*atomLen,
			Z: float64(ac.K)*atomLen + frac(fz)*atomLen,
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
		f.Sample(i%31, s, geom.AtomCoord{I: uint32(i) % 8, J: 0, K: 0}, 8)
	}
}

func BenchmarkInterpolateLag4(b *testing.B) {
	f := New(1, 48, 0)
	s := testSpace()
	ac := geom.AtomCoord{I: 1, J: 1, K: 1}
	a := f.Sample(0, s, ac, 8)
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
	plain := f.Sample(3, s, ac, 4)
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
