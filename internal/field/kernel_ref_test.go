package field

import (
	"math"
	"math/rand"
	"testing"

	"jaws/internal/geom"
)

// The functions below are the slice-based kernels this package shipped
// before the weights moved into stack arrays (three make([]float64, n) per
// interpolated point), kept as the reference the
// differential tests compare against with ==: the arrays changed where
// the weights live, not one floating-point operation or its order.

func refLagrangeWeightsHalo(s float64, n, side, g int) (int, []float64) {
	var start int
	if n == 2 {
		start = int(math.Floor(s))
	} else {
		start = int(math.Floor(s)) - n/2 + 1
	}
	start = clamp(start, -g, side+g-n)
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		xi := float64(start + i)
		num, den := 1.0, 1.0
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			xj := float64(start + j)
			num *= s - xj
			den *= xi - xj
		}
		w[i] = num / den
	}
	return start, w
}

// sampleCoords is Interpolate's prologue: pos in the atom's fractional
// sample coordinates.
func sampleCoords(a *Atom, space geom.Space, ac geom.AtomCoord, pos geom.Position) (sx, sy, sz, h float64) {
	atomLen := float64(space.AtomSide) * space.VoxelSize()
	h = atomLen / float64(a.Side)
	wp := geom.Wrap(pos)
	lx := (wp.X - float64(float64(ac.I)*atomLen)) / h
	ly := (wp.Y - float64(float64(ac.J)*atomLen)) / h
	lz := (wp.Z - float64(float64(ac.K)*atomLen)) / h
	return lx - 0.5, ly - 0.5, lz - 0.5, h
}

func stencilWidth(k Kernel, a *Atom) int {
	n := 2
	switch k {
	case KernelLag4:
		n = 4
	case KernelLag6:
		n = 6
	case KernelLag8:
		n = 8
	}
	if a.dim() < n {
		n = a.dim()
	}
	return n
}

func refInterpolate(k Kernel, a *Atom, space geom.Space, ac geom.AtomCoord, pos geom.Position) [Components]float64 {
	sx, sy, sz, _ := sampleCoords(a, space, ac, pos)
	if k == KernelNone {
		i := clamp(int(math.Round(sx)), 0, a.Side-1)
		j := clamp(int(math.Round(sy)), 0, a.Side-1)
		l := clamp(int(math.Round(sz)), 0, a.Side-1)
		return a.At(i, j, l)
	}
	n := stencilWidth(k, a)
	ix, wx := refLagrangeWeightsHalo(sx, n, a.Side, a.Ghost)
	iy, wy := refLagrangeWeightsHalo(sy, n, a.Side, a.Ghost)
	iz, wz := refLagrangeWeightsHalo(sz, n, a.Side, a.Ghost)
	var out [Components]float64
	for kk := 0; kk < n; kk++ {
		for jj := 0; jj < n; jj++ {
			wyz := wy[jj] * wz[kk]
			for ii := 0; ii < n; ii++ {
				w := wx[ii] * wyz
				v := a.At(ix+ii, iy+jj, iz+kk)
				out[0] += float64(w * v[0])
				out[1] += float64(w * v[1])
				out[2] += float64(w * v[2])
				out[3] += float64(w * v[3])
			}
		}
	}
	return out
}

var allKernels = []Kernel{KernelNone, KernelTrilinear, KernelLag4, KernelLag6, KernelLag8}

// kernelCases are the atoms the differential and allocation tests run on:
// with and without a halo, and one too small for the wider stencils (the
// clamped-width path).
func kernelCases() []struct {
	name string
	ac   geom.AtomCoord
	atom *Atom
} {
	f := New(17, 24, 0)
	s := testSpace()
	ac := geom.AtomCoord{I: 3, J: 0, K: 7}
	return []struct {
		name string
		ac   geom.AtomCoord
		atom *Atom
	}{
		{"side 8", ac, f.SampleGhost(1, s, ac, 8, 0)},
		{"side 8, ghost 4", ac, f.SampleGhost(1, s, ac, 8, 4)},
		{"side 4", ac, f.SampleGhost(2, s, ac, 4, 0)},
	}
}

// positionIn draws a position of atom ac: uniform inside it, on one of
// its faces, a period away, or (still evaluated against ac's samples, as
// the clamped stencil allows) slightly outside it.
func positionIn(rng *rand.Rand, s geom.Space, ac geom.AtomCoord) geom.Position {
	atomLen := float64(s.AtomSide) * s.VoxelSize()
	coord := func(i uint32) float64 {
		lo := float64(float64(i) * atomLen)
		switch rng.Intn(8) {
		case 0:
			return lo
		case 1:
			return math.Nextafter(lo+atomLen, math.Inf(-1))
		case 2:
			return lo + float64(rng.Float64()*atomLen) - geom.DomainSide
		case 3:
			return lo + float64((float64(rng.Float64()*1.2)-0.1)*atomLen)
		}
		return lo + float64(rng.Float64()*atomLen)
	}
	return geom.Position{X: coord(ac.I), Y: coord(ac.J), Z: coord(ac.K)}
}

func TestInterpolateMatchesReferenceBitForBit(t *testing.T) {
	s := testSpace()
	rng := rand.New(rand.NewSource(5))
	for _, tc := range kernelCases() {
		for _, k := range allKernels {
			for i := 0; i < 2000; i++ {
				p := positionIn(rng, s, tc.ac)
				if got, want := Interpolate(k, tc.atom, s, tc.ac, p), refInterpolate(k, tc.atom, s, tc.ac, p); got != want {
					t.Fatalf("%s %v at %+v: Interpolate %v, reference %v", tc.name, k, p, got, want)
				}
			}
		}
	}
}

func TestInterpolateDoesNotAllocate(t *testing.T) {
	s := testSpace()
	var sink float64
	for _, tc := range kernelCases() {
		p := s.Center(tc.ac)
		for _, k := range allKernels {
			if allocs := testing.AllocsPerRun(100, func() { sink += Interpolate(k, tc.atom, s, tc.ac, p)[0] }); allocs != 0 {
				t.Errorf("%s %v: Interpolate allocates %v times, want 0", tc.name, k, allocs)
			}
		}
	}
}
