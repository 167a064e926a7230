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
// a (the atom containing pos within `space`, the space of a's geometry).
// Stencils may extend into the atom's replication halo (§III.A stores four
// ghost voxels on each side for exactly this purpose); without a halo they
// are clamped to the atom's own sample grid. Returns the interpolated (u,
// v, w, p). The samples the stencil reads are filled first if the atom
// lacks them.
func Interpolate(k Kernel, a *Atom, space geom.Space, ac geom.AtomCoord, pos geom.Position) [Components]float64 {
	sx, sy, sz := a.sampleCoords(ac, pos)
	if k == KernelNone {
		i, j, l := a.nearest(sx, sy, sz)
		return a.At(i, j, l)
	}
	return lagrange(a, sx, sy, sz, a.width(k))
}

// sampleCoords is pos in the fractional sample coordinates of atom ac of
// a's geometry: samples sit at cell centres (i+0.5), so sample i is at
// coordinate i.
func (a *Atom) sampleCoords(ac geom.AtomCoord, pos geom.Position) (sx, sy, sz float64) {
	atomLen, h := a.geo.atomLen, a.geo.h
	wp := geom.Wrap(pos)
	lx := (wp.X - float64(float64(ac.I)*atomLen)) / h
	ly := (wp.Y - float64(float64(ac.J)*atomLen)) / h
	lz := (wp.Z - float64(float64(ac.K)*atomLen)) / h
	return lx - 0.5, ly - 0.5, lz - 0.5
}

// nearest is KernelNone's sample: the closest one of the atom's own extent.
func (a *Atom) nearest(sx, sy, sz float64) (i, j, l int) {
	side := a.geo.side
	return clamp(int(math.Round(sx)), 0, side-1),
		clamp(int(math.Round(sy)), 0, side-1),
		clamp(int(math.Round(sz)), 0, side-1)
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
func (a *Atom) stencil(k Kernel, ac geom.AtomCoord, pos geom.Position) (x, y, z, n int) {
	sx, sy, sz := a.sampleCoords(ac, pos)
	side, g := a.geo.side, a.geo.ghost
	if k == KernelNone {
		i, j, l := a.nearest(sx, sy, sz)
		return i + g, j + g, l + g, 1
	}
	n = a.width(k)
	return stencilStart(sx, n, side, g) + g, stencilStart(sy, n, side, g) + g, stencilStart(sz, n, side, g) + g, n
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
	side, g := a.geo.side, a.geo.ghost
	ix, wx := lagrangeWeightsHalo(sx, n, side, g)
	iy, wy := lagrangeWeightsHalo(sy, n, side, g)
	iz, wz := lagrangeWeightsHalo(sz, n, side, g)

	x0, y0, z0 := ix+g, iy+g, iz+g
	a.fillBox(x0, x0+n-1, y0, y0+n-1, z0, z0+n-1)
	// The stencil's n² lines, walked without a call or a division (Atom.line
	// is the one-line form): line (y, z) is line z%b·b + y%b of half row
	// (y/b, z/b, half), from sample x0 − half·m of it, and a line across the
	// midpoint m goes on, after its first cut samples, at the start of the
	// same line of the upper half row.
	b := a.band()
	m, half, cut := 4*b, 0, n
	if x0 >= m {
		half = 1
	} else if x0+n > m {
		cut = m - x0
	}
	x0 -= half * m
	h := a.filled
	r := *h.rows // loop-invariant: the compiler does not hoist its loads
	// The four sums are scalars, not an array, so they stay in registers.
	var u, v, w, p float64
	bz, rz := a.blockOf(z0)
	for kk := 0; kk < n; kk++ {
		by, ry := a.blockOf(y0)
		for jj := 0; jj < n; jj++ {
			wyz := wy[jj] * wz[kk]
			units := h.unit[16*bz+2*by:][:2]
			in := (rz*b + ry) * m * Components
			u, v, w, p = addLine(u, v, w, p, wx[:cut], wyz, r.at(units[half], in+x0*Components))
			if cut < n {
				u, v, w, p = addLine(u, v, w, p, wx[cut:n], wyz, r.at(units[1], in))
			}
			if ry++; ry == b {
				by, ry = by+1, 0
			}
		}
		if rz++; rz == b {
			bz, rz = bz+1, 0
		}
	}
	return [Components]float64{u, v, w, p}
}

// addLine adds to the sums (u, v, w, p) the samples of line, in order, the
// i-th weighted by wx[i]·wyz.
func addLine(u, v, w, p float64, wx []float64, wyz float64, line []float64) (float64, float64, float64, float64) {
	for i, wi := range wx {
		wi *= wyz
		s := line[i*Components:][:Components]
		u += float64(wi * s[0])
		v += float64(wi * s[1])
		w += float64(wi * s[2])
		p += float64(wi * s[3])
	}
	return u, v, w, p
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
