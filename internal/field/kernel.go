package field

import (
	"fmt"
	"math"

	"jaws/internal/geom"
)

// Kernel identifies a computation performed at each queried position,
// mirroring the operations the Turbulence web services expose.
type Kernel int

const (
	// KernelNone returns the nearest sample: used by statistics queries
	// that aggregate raw grid values.
	KernelNone Kernel = iota
	// KernelTrilinear is first-order interpolation over the 2³ cell.
	KernelTrilinear
	// KernelLag4 is 4th-order Lagrange polynomial interpolation (4³ stencil).
	KernelLag4
	// KernelLag6 is 6th-order Lagrange interpolation (6³ stencil).
	KernelLag6
	// KernelLag8 is 8th-order Lagrange interpolation (8³ stencil).
	KernelLag8
)

// String names the kernel.
func (k Kernel) String() string {
	switch k {
	case KernelNone:
		return "none"
	case KernelTrilinear:
		return "trilinear"
	case KernelLag4:
		return "lag4"
	case KernelLag6:
		return "lag6"
	case KernelLag8:
		return "lag8"
	}
	return fmt.Sprintf("kernel(%d)", int(k))
}

// StencilRadius returns the half-width in voxels of the kernel's stencil;
// the pre-processor uses it to compute atom footprints.
func (k Kernel) StencilRadius() int {
	switch k {
	case KernelNone:
		return 0
	case KernelTrilinear:
		return 1
	case KernelLag4:
		return 2
	case KernelLag6:
		return 3
	case KernelLag8:
		return 4
	}
	return 0
}

// CostWeight scales the per-position compute time T_m: higher-order
// stencils touch more samples.
func (k Kernel) CostWeight() float64 {
	switch k {
	case KernelNone:
		return 0.25
	case KernelTrilinear:
		return 1
	case KernelLag4:
		return 2
	case KernelLag6:
		return 4
	case KernelLag8:
		return 8
	}
	return 1
}

// Interpolate evaluates the kernel at position pos using the sampled atom
// a (the atom containing pos within `space`). Stencils may extend into
// the atom's replication halo (§III.A stores four ghost voxels on each
// side for exactly this purpose); without a halo they are clamped to the
// atom's own sample grid. Returns the interpolated (u, v, w, p). The
// samples the stencil reads are filled first if the atom lacks them.
func Interpolate(k Kernel, a *Atom, space geom.Space, ac geom.AtomCoord, pos geom.Position) [Components]float64 {
	sx, sy, sz := a.sampleCoords(space, ac, pos)
	if k == KernelNone {
		i, j, l := a.nearest(sx, sy, sz)
		return a.At(i, j, l)
	}
	return lagrange(a, sx, sy, sz, a.width(k))
}

// sampleCoords is pos in the atom's fractional sample coordinates: samples
// sit at cell centres (i+0.5), so sample i is at coordinate i.
func (a *Atom) sampleCoords(space geom.Space, ac geom.AtomCoord, pos geom.Position) (sx, sy, sz float64) {
	atomLen := float64(space.AtomSide) * space.VoxelSize()
	h := atomLen / float64(a.Side)
	wp := geom.Wrap(pos)
	lx := (wp.X - float64(float64(ac.I)*atomLen)) / h
	ly := (wp.Y - float64(float64(ac.J)*atomLen)) / h
	lz := (wp.Z - float64(float64(ac.K)*atomLen)) / h
	return lx - 0.5, ly - 0.5, lz - 0.5
}

// nearest is KernelNone's sample: the closest one of the atom's own extent.
func (a *Atom) nearest(sx, sy, sz float64) (i, j, l int) {
	return clamp(int(math.Round(sx)), 0, a.Side-1),
		clamp(int(math.Round(sy)), 0, a.Side-1),
		clamp(int(math.Round(sz)), 0, a.Side-1)
}

// width is the Lagrange stencil width of kernel k on the atom: N=2 is
// trilinear, and tiny test atoms fall back to the widest stencil that fits.
func (a *Atom) width(k Kernel) int {
	n := 2
	switch k {
	case KernelLag4:
		n = 4
	case KernelLag6:
		n = 6
	case KernelLag8:
		n = 8
	}
	return min(n, a.dim())
}

// stencil returns the cube of samples kernel k reads to evaluate at pos:
// its first sample (x, y, z), in stored indices, and its side n.
func (a *Atom) stencil(k Kernel, space geom.Space, ac geom.AtomCoord, pos geom.Position) (x, y, z, n int) {
	sx, sy, sz := a.sampleCoords(space, ac, pos)
	g := a.Ghost
	if k == KernelNone {
		i, j, l := a.nearest(sx, sy, sz)
		return i + g, j + g, l + g, 1
	}
	n = a.width(k)
	return stencilStart(sx, n, a.Side, g) + g, stencilStart(sy, n, a.Side, g) + g, stencilStart(sz, n, a.Side, g) + g, n
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// lagrange performs separable N-point Lagrange interpolation on the atom's
// sample grid (halo included), filling the samples it reads first.
func lagrange(a *Atom, sx, sy, sz float64, n int) [Components]float64 {
	ix, wx := lagrangeWeightsHalo(sx, n, a.Side, a.Ghost)
	iy, wy := lagrangeWeightsHalo(sy, n, a.Side, a.Ghost)
	iz, wz := lagrangeWeightsHalo(sz, n, a.Side, a.Ghost)

	g := a.Ghost
	a.FillBlocks(a.box(ix+g, ix+g+n-1, iy+g, iy+g+n-1, iz+g, iz+g+n-1), nil)
	var out [Components]float64
	for kk := 0; kk < n; kk++ {
		for jj := 0; jj < n; jj++ {
			wyz := wy[jj] * wz[kk]
			line := a.line(iy+g+jj, iz+g+kk)[(ix+g)*Components:]
			for ii := 0; ii < n; ii++ {
				w := wx[ii] * wyz
				v := line[ii*Components:][:Components]
				out[0] += float64(w * v[0])
				out[1] += float64(w * v[1])
				out[2] += float64(w * v[2])
				out[3] += float64(w * v[3])
			}
		}
	}
	return out
}

// maxStencil is the widest stencil a kernel uses (Lag8), and so the size
// of the weight arrays, which live on the caller's stack.
const maxStencil = 8

// lagrangeWeightsHalo returns the first stencil index and the n ≤
// maxStencil Lagrange basis weights for fractional sample coordinate s on
// a grid of `side` samples with a replication halo of g samples on each
// side: the stencil may start as early as −g and end as late as side+g,
// so positions near an atom face keep a centred (more accurate) stencil
// instead of a clamped one-sided one.
func lagrangeWeightsHalo(s float64, n, side, g int) (int, [maxStencil]float64) {
	start := stencilStart(s, n, side, g)
	var w [maxStencil]float64
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

// stencilStart is the first index of the n-point stencil at fractional
// sample coordinate s: centred on s (for n = 2, the sample below it), and
// clamped to the samples there are.
func stencilStart(s float64, n, side, g int) int {
	return clamp(int(math.Floor(s))-n/2+1, -g, side+g-n)
}
