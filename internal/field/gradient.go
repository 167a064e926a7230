package field

import (
	"math"

	"jaws/internal/geom"
)

// Gradient is the velocity-gradient tensor du_i/dx_j (i = row, j =
// column). The production Turbulence service exposes this as
// GetVelocityGradient; scientists use it for strain/rotation-rate
// analysis of turbulent structures.
type Gradient [3][3]float64

// EvalGradient returns the analytic velocity gradient of the synthetic
// field at pos and step — the ground truth that numerical differentiation
// of the sampled atoms approximates.
func (f *Field) EvalGradient(step int, pos geom.Position) Gradient {
	pos = geom.Wrap(pos)
	t := float64(step) * f.dt
	var g Gradient
	for i := range f.modes {
		m := &f.modes[i]
		phase := m.k[0]*pos.X + m.k[1]*pos.Y + m.k[2]*pos.Z + m.ph + m.omega*t
		c := math.Cos(phase)
		for vi := 0; vi < 3; vi++ {
			for xj := 0; xj < 3; xj++ {
				g[vi][xj] += m.a[vi] * m.k[xj] * c
			}
		}
	}
	return g
}

// InterpolateGradient evaluates the spatial gradient of the kernel's
// interpolant at pos using the sampled atom: the separable Lagrange basis
// is differentiated analytically along each axis, matching how the
// production service computes FD4/FD6/FD8 gradients on the grid. The
// kernel selects the stencil width (KernelNone degrades to trilinear). An
// unfilled atom is filled first.
func InterpolateGradient(k Kernel, a *Atom, space geom.Space, ac geom.AtomCoord, pos geom.Position) Gradient {
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
	a.Fill(nil)
	atomLen := float64(space.AtomSide) * space.VoxelSize()
	h := atomLen / float64(a.Side)
	wp := geom.Wrap(pos)
	sx := (wp.X-float64(ac.I)*atomLen)/h - 0.5
	sy := (wp.Y-float64(ac.J)*atomLen)/h - 0.5
	sz := (wp.Z-float64(ac.K)*atomLen)/h - 0.5

	ix, wx := lagrangeWeightsHalo(sx, n, a.Side, a.Ghost)
	iy, wy := lagrangeWeightsHalo(sy, n, a.Side, a.Ghost)
	iz, wz := lagrangeWeightsHalo(sz, n, a.Side, a.Ghost)
	dx := lagrangeDerivWeights(sx, ix, n)
	dy := lagrangeDerivWeights(sy, iy, n)
	dz := lagrangeDerivWeights(sz, iz, n)

	d := a.dim()
	gh := a.Ghost
	var g Gradient
	for kk := 0; kk < n; kk++ {
		for jj := 0; jj < n; jj++ {
			rowBase := ((iz+gh+kk)*d + (iy + gh + jj)) * d
			for ii := 0; ii < n; ii++ {
				base := (rowBase + ix + gh + ii) * Components
				wX := dx[ii] * wy[jj] * wz[kk] // ∂/∂x basis
				wY := wx[ii] * dy[jj] * wz[kk] // ∂/∂y basis
				wZ := wx[ii] * wy[jj] * dz[kk] // ∂/∂z basis
				for vi := 0; vi < 3; vi++ {
					v := a.Data[base+vi]
					g[vi][0] += wX * v
					g[vi][1] += wY * v
					g[vi][2] += wZ * v
				}
			}
		}
	}
	// Basis derivatives are per sample index; convert to physical units.
	inv := 1 / h
	for vi := 0; vi < 3; vi++ {
		for xj := 0; xj < 3; xj++ {
			g[vi][xj] *= inv
		}
	}
	return g
}

// lagrangeDerivWeights returns the derivatives of the N Lagrange basis
// polynomials anchored at start, evaluated at fractional sample
// coordinate s (in sample-index units).
func lagrangeDerivWeights(s float64, start, n int) [maxStencil]float64 {
	var d [maxStencil]float64
	for i := 0; i < n; i++ {
		xi := float64(start + i)
		den := 1.0
		for j := 0; j < n; j++ {
			if j != i {
				den *= xi - float64(start+j)
			}
		}
		// d/ds Π_{j≠i}(s-x_j) = Σ_{m≠i} Π_{j≠i,m}(s-x_j).
		sum := 0.0
		for m := 0; m < n; m++ {
			if m == i {
				continue
			}
			prod := 1.0
			for j := 0; j < n; j++ {
				if j == i || j == m {
					continue
				}
				prod *= s - float64(start+j)
			}
			sum += prod
		}
		d[i] = sum / den
	}
	return d
}

// Strain returns the symmetric strain-rate part S_ij = (g_ij + g_ji)/2.
func (g Gradient) Strain() Gradient {
	var s Gradient
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			s[i][j] = 0.5 * (g[i][j] + g[j][i])
		}
	}
	return s
}

// Vorticity returns the vorticity vector ω = ∇×u.
func (g Gradient) Vorticity() [3]float64 {
	return [3]float64{
		g[2][1] - g[1][2],
		g[0][2] - g[2][0],
		g[1][0] - g[0][1],
	}
}

// Divergence returns tr(g) = ∇·u, which is ≈0 for the incompressible
// synthetic field.
func (g Gradient) Divergence() float64 { return g[0][0] + g[1][1] + g[2][2] }

// QCriterion returns Q = (‖Ω‖² − ‖S‖²)/2, the vortex-identification
// measure scientists use to find turbulent structures (positive Q marks
// rotation-dominated regions).
func (g Gradient) QCriterion() float64 {
	s := g.Strain()
	var sNorm, oNorm float64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			omega := 0.5 * (g[i][j] - g[j][i])
			sNorm += s[i][j] * s[i][j]
			oNorm += omega * omega
		}
	}
	return 0.5 * (oNorm - sNorm)
}
