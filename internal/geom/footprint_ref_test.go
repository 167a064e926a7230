package geom

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"jaws/internal/oracle/difftest"
)

// refFootprint is the map-based Footprint this package shipped before the
// allocation-free one, kept as the reference the differential test below
// compares against.
func refFootprint(s Space, p Position, radius int) []AtomCoord {
	primary := s.AtomOf(p)
	if radius <= 0 {
		return []AtomCoord{primary}
	}
	vx, vy, vz := s.VoxelOf(p)
	n := s.AtomsPerAxis()
	seen := map[AtomCoord]bool{primary: true}
	out := []AtomCoord{primary}
	// Examine the two extreme corners of the stencil along each axis.
	for _, dx := range [2]int{vx - radius, vx + radius} {
		for _, dy := range [2]int{vy - radius, vy + radius} {
			for _, dz := range [2]int{vz - radius, vz + radius} {
				a := AtomCoord{
					I: uint32(wrapInt(dx/s.AtomSide, floorDivAdjust(dx, s.AtomSide), n)),
					J: uint32(wrapInt(dy/s.AtomSide, floorDivAdjust(dy, s.AtomSide), n)),
					K: uint32(wrapInt(dz/s.AtomSide, floorDivAdjust(dz, s.AtomSide), n)),
				}
				if !seen[a] {
					seen[a] = true
					out = append(out, a)
				}
			}
		}
	}
	return out
}

// refAppendFootprintAt is AppendFootprintAt as it was before it lost its
// divisions: three integer divisions or modulos per stencil corner (in
// refAtomIndex) and a linear search of the listed atoms per corner. It is
// the reference the division-free one is held to, element by element.
func refAppendFootprintAt(s Space, dst []AtomCoord, vx, vy, vz, radius int) []AtomCoord {
	primary := AtomCoord{
		I: uint32(vx / s.AtomSide),
		J: uint32(vy / s.AtomSide),
		K: uint32(vz / s.AtomSide),
	}
	start := len(dst)
	dst = append(dst, primary)
	if radius <= 0 {
		return dst
	}
	// The two extreme corners of the stencil along each axis.
	is := [2]uint32{refAtomIndex(s, vx-radius), refAtomIndex(s, vx+radius)}
	js := [2]uint32{refAtomIndex(s, vy-radius), refAtomIndex(s, vy+radius)}
	ks := [2]uint32{refAtomIndex(s, vz-radius), refAtomIndex(s, vz+radius)}
	for _, i := range is {
		for _, j := range js {
			for _, k := range ks {
				if a := (AtomCoord{I: i, J: j, K: k}); !slices.Contains(dst[start:], a) {
					dst = append(dst, a)
				}
			}
		}
	}
	return dst
}

// refAtomIndex maps a voxel index along one axis, possibly outside the
// grid, to the index of its atom in the periodic atom grid.
func refAtomIndex(s Space, v int) uint32 {
	return uint32(wrapInt(v/s.AtomSide, floorDivAdjust(v, s.AtomSide), s.AtomsPerAxis()))
}

// floorDivAdjust returns -1 when integer division of a negative numerator
// truncated toward zero instead of flooring.
func floorDivAdjust(num, den int) int {
	if num < 0 && num%den != 0 {
		return -1
	}
	return 0
}

// wrapInt wraps q+adjust into [0, n) for the periodic atom grid.
func wrapInt(q, adjust, n int) int {
	v := (q + adjust) % n
	if v < 0 {
		v += n
	}
	return v
}

// footprintSpaces are the spaces the footprint is held to its reference
// on: the paper's, the benchmark's, a non-power-of-two atom side, and two
// tiny ones where a stencil reaches around the whole grid.
var footprintSpaces = []Space{
	{GridSide: 96, AtomSide: 24},
	{GridSide: 128, AtomSide: 32},
	{GridSide: 1024, AtomSide: 64},
	{GridSide: 8, AtomSide: 2},
	{GridSide: 16, AtomSide: 8},
}

// checkFootprintAt compares AppendFootprintAt with the reference on one
// voxel, after a prefix the call must leave alone, and returns the
// footprint's size.
func checkFootprintAt(t difftest.TB, s Space, vx, vy, vz, radius int) int {
	t.Helper()
	prefix := []AtomCoord{{I: 7, J: 7, K: 7}}
	want := refAppendFootprintAt(s, slices.Clone(prefix), vx, vy, vz, radius)
	var buf [1 + MaxFootprint]AtomCoord
	got := s.AppendFootprintAt(append(buf[:0], prefix...), vx, vy, vz, radius)
	if !slices.Equal(got, want) {
		t.Fatalf("%+v voxel (%d,%d,%d) radius %d: footprint %v, reference %v", s, vx, vy, vz, radius, got, want)
	}
	return len(want) - len(prefix)
}

// replay decodes l into voxels and radii on one space and holds
// AppendFootprintAt to the reference on each. A byte picks the space; each
// check reads a radius — one a kernel has (0 to 4) five times in eight,
// else up to three periods — and a voxel: up to the radius outside the
// grid (within one period, which is all a corner may be) for a kernel's
// radius, inside it for a larger one. replay returns the largest
// footprint it saw.
func replay(t difftest.TB, l *difftest.Log) (most int) {
	s := footprintSpaces[l.Intn(len(footprintSpaces))]
	for l.More() {
		radius, lo, n := l.Intn(8), 0, s.GridSide
		if radius > 4 {
			radius = l.Intn(3*s.GridSide + 1)
		} else {
			lo, n = -radius, s.GridSide+2*radius
		}
		v := func() int { return lo + l.Intn(n) }
		most = max(most, checkFootprintAt(t, s, v(), v(), v(), radius))
	}
	return most
}

// The division-free AppendFootprintAt lists the same atoms in the same
// order as the one it replaced, on random logs of replay's, and some
// footprint reaches MaxFootprint.
func TestFootprintAtMatchesReference(t *testing.T) {
	most := 0
	difftest.Seeds(t, difftest.Gen{First: 1, N: 40, Min: 20000}, func(t difftest.TB, l *difftest.Log) {
		most = max(most, replay(t, l))
	})
	if !t.Failed() && most != MaxFootprint {
		t.Fatalf("largest footprint seen has %d atoms, MaxFootprint is %d", most, MaxFootprint)
	}
}

// FuzzFootprint replays fuzzed logs through the same decoder.
func FuzzFootprint(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0})           // the 96/24 space, radius 0 at the origin
	f.Add([]byte{3, 4, 12, 11, 1})         // the 8/2 space, radius 4 at (8, 7, −3)
	f.Add([]byte{0, 5, 0, 97, 23, 24, 95}) // the 96/24 space, radius 97 at (23, 24, 95)
	f.Fuzz(func(t *testing.T, log []byte) {
		replay(t, difftest.NewLog(log))
	})
}

// awkwardCoord draws a coordinate that is, half of the time, one the
// voxel arithmetic could get wrong: exactly on an atom face, on the
// periodic seam, negative, or a period or more beyond the domain.
func awkwardCoord(rng *rand.Rand, s Space) float64 {
	asz := float64(s.AtomSide) * s.VoxelSize()
	face := float64(rng.Intn(s.AtomsPerAxis()+1)) * asz
	switch rng.Intn(10) {
	case 0:
		return face
	case 1:
		return math.Nextafter(face, math.Inf(-1))
	case 2:
		return math.Nextafter(face, math.Inf(1))
	case 3:
		return -rng.Float64() * 3 * DomainSide
	case 4:
		return DomainSide + rng.Float64()*3*DomainSide
	}
	return rng.Float64() * DomainSide
}

// The allocation-free footprint must list the same atoms in the same
// order as the reference, for every kernel radius and beyond, on spaces
// with atoms both wider and narrower than the stencil (the latter is the
// nine-atom case: the primary is then none of the corners' atoms).
func TestFootprintMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	spaces := []Space{
		{GridSide: 256, AtomSide: 32},
		{GridSide: 64, AtomSide: 8},
		{GridSide: 16, AtomSide: 2},
		{GridSide: 8, AtomSide: 8},
	}
	most := 0
	for _, s := range spaces {
		for i := 0; i < 20000; i++ {
			p := Position{awkwardCoord(rng, s), awkwardCoord(rng, s), awkwardCoord(rng, s)}
			radius := rng.Intn(10) - 1
			want := refFootprint(s, p, radius)
			if got := s.Footprint(p, radius); !slices.Equal(got, want) {
				t.Fatalf("%+v radius %d at %+v: footprint %v, reference %v", s, radius, p, got, want)
			}
			prefix := []AtomCoord{{I: 7, J: 7, K: 7}}
			got := s.AppendFootprint(prefix, p, radius)
			if got[0] != prefix[0] || !slices.Equal(got[1:], want) {
				t.Fatalf("%+v radius %d at %+v: appended %v, reference %v", s, radius, p, got, want)
			}
			most = max(most, len(want))
		}
	}
	if most != MaxFootprint {
		t.Fatalf("largest footprint seen has %d atoms, MaxFootprint is %d", most, MaxFootprint)
	}
}

func TestAppendFootprintDoesNotAllocate(t *testing.T) {
	s := Space{GridSide: 16, AtomSide: 2}
	p := Position{0.1, 0.2, 0.3}
	if n := len(s.Footprint(p, 4)); n != MaxFootprint {
		t.Fatalf("test position has a footprint of %d atoms, want the worst case %d", n, MaxFootprint)
	}
	var total int
	allocs := testing.AllocsPerRun(100, func() {
		var buf [MaxFootprint]AtomCoord
		total += len(s.AppendFootprint(buf[:0], p, 4))
	})
	if allocs != 0 {
		t.Fatalf("AppendFootprint into a MaxFootprint buffer: %v allocs, want 0", allocs)
	}
}
