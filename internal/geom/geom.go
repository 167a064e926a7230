// Package geom defines the spatial model of the simulated Turbulence
// database: a periodic cube of voxels partitioned into fixed-size storage
// blocks ("atoms"), and the mapping from continuous query positions to the
// atoms their evaluation touches.
//
// In the production database each time step is a 1024³ voxel grid split
// into 64³-voxel atoms (4096 atoms of ~8 MB per step). The same layout is
// reproduced here with configurable sizes so tests run at small scale while
// the benchmark harness uses paper-scale parameters.
package geom

import (
	"fmt"
	"math"

	"jaws/internal/morton"
)

// Position is a point in the continuous simulation domain [0, 2π)³,
// matching the convention of the turbulence DNS, which simulates a
// periodic box of side 2π.
type Position struct {
	X, Y, Z float64
}

// DomainSide is the physical side length of the periodic simulation box.
const DomainSide = 2 * math.Pi

// Space describes the discretization of one time step: GridSide voxels per
// axis, partitioned into atoms of AtomSide voxels per axis.
type Space struct {
	// GridSide is the number of voxels per axis (1024 in the paper).
	GridSide int
	// AtomSide is the number of voxels per axis in one atom (64 in the
	// paper, giving 4096 atoms per time step).
	AtomSide int
}

// Validate checks the structural invariants of the space.
func (s Space) Validate() error {
	if s.GridSide <= 0 || s.AtomSide <= 0 {
		return fmt.Errorf("geom: sides must be positive, got grid=%d atom=%d", s.GridSide, s.AtomSide)
	}
	if s.GridSide%s.AtomSide != 0 {
		return fmt.Errorf("geom: grid side %d not divisible by atom side %d", s.GridSide, s.AtomSide)
	}
	side := s.AtomsPerAxis()
	if side&(side-1) != 0 {
		return fmt.Errorf("geom: atoms per axis %d must be a power of two for the Morton index", side)
	}
	return nil
}

// AtomsPerAxis returns the number of atoms along one axis.
func (s Space) AtomsPerAxis() int { return s.GridSide / s.AtomSide }

// AtomsPerStep returns the total number of atoms in one time step
// (4096 in the paper).
func (s Space) AtomsPerStep() int {
	n := s.AtomsPerAxis()
	return n * n * n
}

// VoxelSize is the physical side length of one voxel.
func (s Space) VoxelSize() float64 { return DomainSide / float64(s.GridSide) }

// AtomCoord identifies an atom within a time step by its integer grid
// coordinates (each in [0, AtomsPerAxis)).
type AtomCoord struct {
	I, J, K uint32
}

// Code returns the Morton code of the atom, which is its position in the
// on-disk linear order.
func (a AtomCoord) Code() morton.Code { return morton.Encode(a.I, a.J, a.K) }

// AtomFromCode inverts Code.
func AtomFromCode(c morton.Code) AtomCoord {
	x, y, z := c.Decode()
	return AtomCoord{I: x, J: y, K: z}
}

// wrap maps v into [0, DomainSide] respecting periodicity: a coordinate
// already in [0, DomainSide) is returned as it is (math.Mod would return
// the same bits, −0 included), anything else is reduced with math.Mod. The
// upper end is closed: a negative v too small to move DomainSide (−1e-20)
// rounds to DomainSide itself. ±Inf and NaN yield NaN.
func wrap(v float64) float64 {
	if v >= 0 && v < DomainSide {
		return v
	}
	return wrapOutside(v)
}

// wrapOutside is wrap's reduction, kept out of line so that the test
// above inlines into wrap's callers.
//
//go:noinline
func wrapOutside(v float64) float64 {
	v = math.Mod(v, DomainSide)
	if v < 0 {
		v += DomainSide
	}
	return v
}

// Wrap returns p with every component wrapped into the periodic domain
// [0, DomainSide] — DomainSide itself only for a tiny negative component
// (see wrap), which VoxelOf places in the last voxel.
func Wrap(p Position) Position {
	return Position{X: wrap(p.X), Y: wrap(p.Y), Z: wrap(p.Z)}
}

// VoxelOf returns the integer voxel containing p (after periodic wrap),
// each index in [0, GridSide). The clamp below is what keeps a coordinate
// that wraps to DomainSide itself inside the grid. A non-finite coordinate
// (wrap gives NaN) is placed in the last voxel too, on every platform: the
// clamp tests the quotient, not the integer a NaN converts to. Nothing
// upstream rejects such a position.
func (s Space) VoxelOf(p Position) (vx, vy, vz int) {
	vsz, side := s.VoxelSize(), float64(s.GridSide)
	f := func(v float64) int {
		w := wrap(v) / vsz
		// FP round-up at the seam, wrap(v) == DomainSide, or NaN.
		if !(w < side) {
			return s.GridSide - 1
		}
		return int(w)
	}
	return f(p.X), f(p.Y), f(p.Z)
}

// AtomOf returns the atom containing position p.
func (s Space) AtomOf(p Position) AtomCoord {
	vx, vy, vz := s.VoxelOf(p)
	return AtomCoord{
		I: uint32(vx / s.AtomSide),
		J: uint32(vy / s.AtomSide),
		K: uint32(vz / s.AtomSide),
	}
}

// Footprint returns the set of atoms an interpolation stencil of
// half-width radius (in voxels) around p must read. The primary atom is
// always first. For Lagrange interpolation of order N the stencil spans
// N voxels, so radius = N/2; a stencil that stays inside one atom returns
// just that atom, while one near an atom face spills into neighbours —
// this is the "kernel of computation" locality that two-level scheduling
// (batching k nearby atoms) exploits.
func (s Space) Footprint(p Position, radius int) []AtomCoord {
	var buf [MaxFootprint]AtomCoord
	return append([]AtomCoord(nil), s.AppendFootprint(buf[:0], p, radius)...)
}

// MaxFootprint bounds the atoms of one footprint: the primary plus the
// atoms of the stencil's eight corners. A caller that passes
// AppendFootprint a buffer of this capacity never allocates.
const MaxFootprint = 9

// AppendFootprint appends the footprint of p (see Footprint) to dst and
// returns the extended slice.
func (s Space) AppendFootprint(dst []AtomCoord, p Position, radius int) []AtomCoord {
	vx, vy, vz := s.VoxelOf(p)
	return s.AppendFootprintAt(dst, vx, vy, vz, radius)
}

// AppendFootprintAt is AppendFootprint for a position already resolved
// to its voxel (VoxelOf): the voxel's atom first, then the atoms of the
// stencil's corners not yet listed, the x corner varying slowest and the
// z corner fastest.
func (s Space) AppendFootprintAt(dst []AtomCoord, vx, vy, vz, radius int) []AtomCoord {
	primary := AtomCoord{
		I: uint32(vx / s.AtomSide),
		J: uint32(vy / s.AtomSide),
		K: uint32(vz / s.AtomSide),
	}
	dst = append(dst, primary)
	if radius <= 0 {
		return dst
	}
	// A whole period moves no corner: with the radius below GridSide, each
	// corner is at most one period outside the grid.
	if radius >= s.GridSide {
		radius %= s.GridSide
	}
	// The atoms of the two extreme corners along each axis, and how many
	// of the two are distinct. Their product lists every corner's atom
	// once, in the corners' order; only the primary can be among them
	// already.
	is, ni := s.cornerAtoms(vx, radius)
	js, nj := s.cornerAtoms(vy, radius)
	ks, nk := s.cornerAtoms(vz, radius)
	for _, i := range is[:ni] {
		for _, j := range js[:nj] {
			for _, k := range ks[:nk] {
				if a := (AtomCoord{I: i, J: j, K: k}); a != primary {
					dst = append(dst, a)
				}
			}
		}
	}
	return dst
}

// cornerAtoms returns the atom indices of the voxels v−radius and
// v+radius along one axis (v in [0, GridSide), radius in [0, GridSide)),
// wrapped into the periodic grid, and 1 when they are the same atom, else
// 2.
func (s Space) cornerAtoms(v, radius int) ([2]uint32, int) {
	lo, hi := v-radius, v+radius
	if lo < 0 {
		lo += s.GridSide
	}
	if hi >= s.GridSide {
		hi -= s.GridSide
	}
	a := [2]uint32{uint32(lo / s.AtomSide), uint32(hi / s.AtomSide)}
	if a[0] == a[1] {
		return a, 1
	}
	return a, 2
}

// Center returns the physical center of atom a.
func (s Space) Center(a AtomCoord) Position {
	asz := float64(s.AtomSide) * s.VoxelSize()
	return Position{
		X: (float64(a.I) + 0.5) * asz,
		Y: (float64(a.J) + 0.5) * asz,
		Z: (float64(a.K) + 0.5) * asz,
	}
}

// String renders the atom coordinate.
func (a AtomCoord) String() string { return fmt.Sprintf("atom(%d,%d,%d)", a.I, a.J, a.K) }
