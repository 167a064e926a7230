package field

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"jaws/internal/geom"
)

// The functions below are the synthesis kernel this package shipped before
// the phase was factored by axis: one sincos of the whole phase k·x + φ + ωt
// per mode and sample. They are kept as the reference the factored kernel
// is held to; the factorization rounds differently, so the comparison is
// within a bound, not bit for bit.

// refEval is Eval with one sincos of the whole phase per mode.
func (f *Field) refEval(step int, pos geom.Position) [Components]float64 {
	pos = geom.Wrap(pos)
	t := float64(step) * f.dt
	var out [Components]float64
	for i := range f.modes {
		m := &f.modes[i]
		s, c := sincos(float64(m.k[0]*pos.X) + float64(m.k[1]*pos.Y) + float64(m.k[2]*pos.Z) + m.ph + float64(m.omega*t))
		out[0] += float64(m.a[0] * s)
		out[1] += float64(m.a[1] * s)
		out[2] += float64(m.a[2] * s)
		out[3] += float64(m.p * c)
	}
	return out
}

// refFill is fill with one sincos per mode and sample, the modes outside
// the samples of a run: it writes the blocks of want into the units the
// atom holds for them, with the bits refEval gives there.
func (a *Atom) refFill(want *Blocks) {
	f := a.geo.src
	atomLen := float64(a.geo.space.AtomSide) * a.geo.space.VoxelSize()
	h := atomLen / float64(a.geo.side)
	d, b := a.dim(), a.band()
	tab := make([]float64, 3*d)
	xs, ys, zs := tab[:d], tab[d:2*d], tab[2*d:3*d]
	for n := 0; n < d; n++ {
		off := float64((float64(n-a.geo.ghost) + 0.5) * h)
		p := geom.Wrap(geom.Position{
			X: float64(float64(a.coord().I)*atomLen) + off,
			Y: float64(float64(a.coord().J)*atomLen) + off,
			Z: float64(float64(a.coord().K)*atomLen) + off,
		})
		xs[n], ys[n], zs[n] = p.X, p.Y, p.Z
	}
	t := float64(a.step()) * f.dt
	for zi, z := range zs {
		plane := want[zi/b]
		for yi, y := range ys {
			line := uint8(plane >> (8 * (yi / b)))
			for line != 0 {
				lo := bits.TrailingZeros8(line)
				n := bits.TrailingZeros8(^(line >> lo))
				line &= line + line&-line
				x0, x1 := lo*b, min((lo+n)*b, d)
				below, above := a.line(x0, x1, yi, zi)
				clear(below)
				clear(above)
				cut := len(below) / Components
				for mi := range f.modes {
					m := &f.modes[mi]
					kx, ky, kz, wt := m.k[0], float64(m.k[1]*y), float64(m.k[2]*z), float64(m.omega*t)
					run := below
					for i, x := range xs[x0:x1] {
						if i == cut {
							run = above
						}
						s, c := sincos(float64(kx*x) + ky + kz + m.ph + wt)
						v := run[:Components]
						run = run[Components:]
						v[0] += float64(m.a[0] * s)
						v[1] += float64(m.a[1] * s)
						v[2] += float64(m.a[2] * s)
						v[3] += float64(m.p * c)
					}
				}
			}
		}
	}
}

// refBound is how far the factored kernel may stray from the reference:
// a few ulps of the values (≤ 0.17 in magnitude) summed over 48 modes.
const refBound = 2e-15

// TestFillMatchesReference holds the factored fill to the per-sample
// reference within refBound, sample by sample, over sides of one to three
// samples a block, halos, steps up to the paper's last, and an interior atom
// and the two seam atoms of an axis (where halo positions wrap). Half the
// atoms are filled whole and half in random block sets, so the phase tables
// of a fill that spans only part of an axis are held too. Eval is held to
// its reference at random positions. The largest deviation is logged.
func TestFillMatchesReference(t *testing.T) {
	f := New(5, 48, 0)
	s := testSpace()
	rng := rand.New(rand.NewSource(9))
	last := uint32(s.GridSide/s.AtomSide - 1)
	worst := 0.0
	for _, side := range []int{4, 8, 12, 20} {
		for _, ghost := range []int{0, 2, 4} {
			for _, step := range []int{0, 7, 1023} {
				for _, ac := range []geom.AtomCoord{{I: 2, J: 1, K: 3}, {I: 0, J: 0, K: 0}, {I: last, J: last, K: last}} {
					a := f.Frame(step, s, ac, side, ghost)
					if rng.Intn(2) == 0 {
						a.Fill()
					} else {
						for *a.held() != a.all() {
							var mask Blocks
							for i := range mask {
								mask[i] = rng.Uint64() & rng.Uint64() & rng.Uint64()
							}
							a.FillBlocks(mask, nil)
						}
					}
					ref := f.Frame(step, s, ac, side, ghost)
					ref.Fill() // takes the units; refFill overwrites every sample
					all := ref.all()
					ref.refFill(&all)
					d := a.dim()
					for z := 0; z < d; z++ {
						for y := 0; y < d; y++ {
							for x := 0; x < d; x++ {
								for c, w := range ref.sample(x, y, z) {
									dev := math.Abs(a.sample(x, y, z)[c] - w)
									if !(dev <= refBound) {
										t.Fatalf("side %d ghost %d step %d atom %v sample (%d,%d,%d) component %d: %v, the reference %v",
											side, ghost, step, ac, x, y, z, c, a.sample(x, y, z)[c], w)
									}
									worst = max(worst, dev)
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("fill: largest deviation from the reference %.3g", worst)
	worst = 0
	for i := 0; i < 20000; i++ {
		p := geom.Position{X: rng.Float64() * geom.DomainSide, Y: rng.Float64() * geom.DomainSide, Z: rng.Float64() * geom.DomainSide}
		step := rng.Intn(1024)
		got, want := f.Eval(step, p), f.refEval(step, p)
		for c := range got {
			dev := math.Abs(got[c] - want[c])
			if !(dev <= refBound) {
				t.Fatalf("Eval(%d, %+v) component %d: %v, the reference %v", step, p, c, got[c], want[c])
			}
			worst = max(worst, dev)
		}
	}
	t.Logf("Eval: largest deviation from the reference %.3g", worst)
}
