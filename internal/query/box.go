package query

import (
	"fmt"

	"jaws/internal/field"
	"jaws/internal/geom"
)

// BoxQuery builds a query that samples an axis-aligned box of the domain
// on a regular lattice — the "cutout" access pattern the Turbulence web
// services expose alongside point queries. lo and hi are opposite corners
// (hi components must exceed lo components; the box may not wrap), and
// stride is the lattice spacing in voxels (≥1).
//
// The resulting query behaves like any other: the pre-processor splits it
// into per-atom sub-queries, and because a box maps to a compact set of
// Morton-contiguous atoms (the hierarchical index property of §III.A),
// its batches produce near-sequential I/O.
func BoxQuery(id ID, space geom.Space, step int, lo, hi geom.Position, stride int, k field.Kernel) (*Query, error) {
	if stride < 1 {
		return nil, fmt.Errorf("query: box stride must be ≥1, got %d", stride)
	}
	if hi.X <= lo.X || hi.Y <= lo.Y || hi.Z <= lo.Z {
		return nil, fmt.Errorf("query: box corners not ordered: lo %v hi %v", lo, hi)
	}
	if hi.X-lo.X > geom.DomainSide || hi.Y-lo.Y > geom.DomainSide || hi.Z-lo.Z > geom.DomainSide {
		return nil, fmt.Errorf("query: box exceeds the periodic domain")
	}
	// Rounded on its own, or arm64, ppc64le and riscv64 fuse the product
	// into every z += h below (make check-fma).
	h := float64(space.VoxelSize() * float64(stride))
	var pts []geom.Position
	for z := lo.Z; z < hi.Z; z += h {
		for y := lo.Y; y < hi.Y; y += h {
			for x := lo.X; x < hi.X; x += h {
				pts = append(pts, geom.Wrap(geom.Position{X: x, Y: y, Z: z}))
			}
		}
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("query: box smaller than one lattice cell")
	}
	q := &Query{ID: id, Step: step, Points: pts, Kernel: k}
	return q, nil
}

// SphereQuery builds a query sampling a ball around center on a regular
// lattice of the given stride (in voxels) — the probe-volume pattern the
// statistics workloads use.
func SphereQuery(id ID, space geom.Space, step int, center geom.Position, radius float64, stride int, k field.Kernel) (*Query, error) {
	if stride < 1 {
		return nil, fmt.Errorf("query: sphere stride must be ≥1, got %d", stride)
	}
	if radius <= 0 || radius > geom.DomainSide/2 {
		return nil, fmt.Errorf("query: sphere radius %g out of range", radius)
	}
	h := float64(space.VoxelSize() * float64(stride))
	var pts []geom.Position
	for z := -radius; z <= radius; z += h {
		for y := -radius; y <= radius; y += h {
			for x := -radius; x <= radius; x += h {
				if float64(x*x)+float64(y*y)+float64(z*z) > radius*radius {
					continue
				}
				pts = append(pts, geom.Wrap(geom.Position{
					X: center.X + x, Y: center.Y + y, Z: center.Z + z,
				}))
			}
		}
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("query: sphere smaller than one lattice cell")
	}
	return &Query{ID: id, Step: step, Points: pts, Kernel: k}, nil
}
