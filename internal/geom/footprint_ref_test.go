package geom

import (
	"math"
	"math/rand"
	"slices"
	"testing"
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
