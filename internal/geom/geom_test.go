package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testSpace() Space { return Space{GridSide: 256, AtomSide: 32} }

// paperSpace is the production geometry: 1024³ voxels in 64³-voxel atoms.
func paperSpace() Space { return Space{GridSide: 1024, AtomSide: 64} }

func TestValidate(t *testing.T) {
	if err := testSpace().Validate(); err != nil {
		t.Fatalf("valid space rejected: %v", err)
	}
	if err := paperSpace().Validate(); err != nil {
		t.Fatalf("paper space rejected: %v", err)
	}
	bad := []Space{
		{GridSide: 0, AtomSide: 32},
		{GridSide: 256, AtomSide: 0},
		{GridSide: 100, AtomSide: 32},  // not divisible
		{GridSide: 96, AtomSide: 32},   // 3 atoms per axis: not a power of two
		{GridSide: -256, AtomSide: 32}, // negative
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("invalid space %+v accepted", s)
		}
	}
}

func TestPaperSpaceDimensions(t *testing.T) {
	s := paperSpace()
	if got := s.AtomsPerAxis(); got != 16 {
		t.Fatalf("paper atoms per axis = %d, want 16", got)
	}
	if got := s.AtomsPerStep(); got != 4096 {
		t.Fatalf("paper atoms per step = %d, want 4096 (as stated in §III.A)", got)
	}
}

func TestAtomOfCorners(t *testing.T) {
	s := testSpace()
	if a := s.AtomOf(Position{0, 0, 0}); a != (AtomCoord{0, 0, 0}) {
		t.Fatalf("origin in atom %v, want (0,0,0)", a)
	}
	// Just inside the far corner.
	eps := 1e-9
	p := Position{DomainSide - eps, DomainSide - eps, DomainSide - eps}
	n := uint32(s.AtomsPerAxis() - 1)
	if a := s.AtomOf(p); a != (AtomCoord{n, n, n}) {
		t.Fatalf("far corner in atom %v, want (%d,%d,%d)", a, n, n, n)
	}
}

func TestAtomOfPeriodicWrap(t *testing.T) {
	s := testSpace()
	a := s.AtomOf(Position{DomainSide + 0.1, -0.1, 2 * DomainSide})
	b := s.AtomOf(Position{0.1, DomainSide - 0.1, 0})
	if a != b {
		t.Fatalf("periodic wrap inconsistent: %v vs %v", a, b)
	}
}

// Property: every position maps to an atom with coordinates inside the
// grid, and the atom's Morton code round-trips.
func TestAtomOfInRange(t *testing.T) {
	s := testSpace()
	n := uint32(s.AtomsPerAxis())
	f := func(x, y, z float64) bool {
		a := s.AtomOf(Position{x, y, z})
		if a.I >= n || a.J >= n || a.K >= n {
			return false
		}
		return AtomFromCode(a.Code()) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestFootprintInterior(t *testing.T) {
	s := testSpace()
	// Center of atom (1,1,1): an 8-voxel-radius stencil stays inside a
	// 32-voxel atom.
	center := s.Center(AtomCoord{1, 1, 1})
	fp := s.Footprint(center, 8)
	if len(fp) != 1 || fp[0] != (AtomCoord{1, 1, 1}) {
		t.Fatalf("interior footprint = %v, want just atom(1,1,1)", fp)
	}
}

func TestFootprintZeroRadius(t *testing.T) {
	s := testSpace()
	p := Position{0.1, 0.2, 0.3}
	fp := s.Footprint(p, 0)
	if len(fp) != 1 || fp[0] != s.AtomOf(p) {
		t.Fatalf("zero-radius footprint = %v, want the containing atom only", fp)
	}
}

func TestFootprintSpillsAcrossFace(t *testing.T) {
	s := testSpace()
	// A point just inside atom (1,1,1) near its low-x face: stencil spills
	// into atom (0,1,1).
	asz := float64(s.AtomSide) * s.VoxelSize()
	p := Position{asz + 0.5*s.VoxelSize(), 1.5 * asz, 1.5 * asz}
	fp := s.Footprint(p, 4)
	if fp[0] != (AtomCoord{1, 1, 1}) {
		t.Fatalf("primary atom = %v, want (1,1,1)", fp[0])
	}
	found := false
	for _, a := range fp {
		if a == (AtomCoord{0, 1, 1}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("footprint %v missing neighbour (0,1,1)", fp)
	}
}

func TestFootprintPeriodicSpill(t *testing.T) {
	s := testSpace()
	// A point near the domain origin: the stencil wraps to the far side.
	p := Position{0.5 * s.VoxelSize(), 0.5 * s.VoxelSize(), 0.5 * s.VoxelSize()}
	fp := s.Footprint(p, 4)
	n := uint32(s.AtomsPerAxis() - 1)
	found := false
	for _, a := range fp {
		if a == (AtomCoord{n, n, n}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("periodic footprint %v missing wrapped corner atom (%d,%d,%d)", fp, n, n, n)
	}
	if len(fp) != 8 {
		t.Fatalf("corner stencil should touch 8 atoms, got %d: %v", len(fp), fp)
	}
}

// Property: the footprint always contains the primary atom first and has
// no duplicates.
func TestFootprintNoDuplicates(t *testing.T) {
	s := testSpace()
	f := func(x, y, z float64, r uint8) bool {
		radius := int(r % 8)
		p := Position{x, y, z}
		fp := s.Footprint(p, radius)
		if len(fp) == 0 || fp[0] != s.AtomOf(p) {
			return false
		}
		seen := map[AtomCoord]bool{}
		for _, a := range fp {
			if seen[a] {
				return false
			}
			seen[a] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCenterInsideAtom(t *testing.T) {
	s := testSpace()
	for _, a := range []AtomCoord{{0, 0, 0}, {3, 5, 7}, {7, 7, 7}} {
		if got := s.AtomOf(s.Center(a)); got != a {
			t.Fatalf("center of %v maps back to %v", a, got)
		}
	}
}

func TestVoxelSize(t *testing.T) {
	s := testSpace()
	want := DomainSide / 256
	if got := s.VoxelSize(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("VoxelSize = %g, want %g", got, want)
	}
}

func TestWrap(t *testing.T) {
	p := Wrap(Position{-0.5, DomainSide + 0.5, 3 * DomainSide})
	if p.X < 0 || p.X >= DomainSide || p.Y < 0 || p.Y >= DomainSide || p.Z < 0 || p.Z >= DomainSide {
		t.Fatalf("Wrap left components outside domain: %+v", p)
	}
}

// refWrap is wrap as it was before the in-domain fast path: math.Mod on
// every coordinate. The fast path must agree with it bit for bit.
func refWrap(v float64) float64 {
	v = math.Mod(v, DomainSide)
	if v < 0 {
		v += DomainSide
	}
	return v
}

// checkWrap fails unless wrap(v) has the reference's bits (sign bit
// included; any NaN equals any NaN) and lies in the documented range, and
// VoxelOf and AtomOf place v inside every space's grid — a non-finite v in
// the last voxel, whatever the platform converts a NaN to.
func checkWrap(t *testing.T, v float64) {
	t.Helper()
	got, want := wrap(v), refWrap(v)
	if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("wrap(%v) = %v (%#x), math.Mod reference %v (%#x)", v, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if !math.IsNaN(got) && (got < 0 || got > DomainSide) {
		t.Fatalf("wrap(%v) = %v outside [0, DomainSide]", v, got)
	}
	for _, s := range []Space{testSpace(), paperSpace(), {GridSide: 96, AtomSide: 24}, {GridSide: 8, AtomSide: 8}} {
		vx, vy, vz := s.VoxelOf(Position{X: v, Y: -v, Z: v / 2})
		for _, i := range []int{vx, vy, vz} {
			if i < 0 || i >= s.GridSide {
				t.Fatalf("%+v: VoxelOf(%v) = (%d,%d,%d) outside the grid", s, v, vx, vy, vz)
			}
		}
		if last := s.GridSide - 1; math.IsNaN(got) && (vx != last || vy != last || vz != last) {
			t.Fatalf("%+v: VoxelOf(%v) = (%d,%d,%d), want the last voxel for a non-finite coordinate", s, v, vx, vy, vz)
		}
		a := s.AtomOf(Position{X: v, Y: -v, Z: v / 2})
		if n := uint32(s.AtomsPerAxis()); a.I >= n || a.J >= n || a.K >= n {
			t.Fatalf("%+v: AtomOf(%v) = %v outside the atom grid", s, v, a)
		}
	}
}

func TestWrapMatchesMod(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{
		0, negZero, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-20, -1e-20, 1e-300, -1e-300,
		DomainSide, -DomainSide, math.Nextafter(DomainSide, 0), math.Nextafter(DomainSide, math.Inf(1)),
		-math.Nextafter(DomainSide, 0), DomainSide / 2, 1, -1, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for k := 2.0; k < 1e6; k *= 3 {
		vals = append(vals, k*DomainSide, -k*DomainSide, math.Nextafter(k*DomainSide, 0), math.Nextafter(-k*DomainSide, 0))
	}
	for _, v := range vals {
		checkWrap(t, v)
	}
	if !math.Signbit(wrap(negZero)) {
		t.Fatal("wrap(-0) lost the sign bit math.Mod keeps")
	}
	// The documented exception to [0, DomainSide): pinned, not endorsed.
	if got := wrap(-1e-20); got != DomainSide {
		t.Fatalf("wrap(-1e-20) = %v; the doc comments of wrap, Wrap and VoxelOf say DomainSide", got)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		checkWrap(t, (rng.Float64()*6-3)*DomainSide)
		checkWrap(t, math.Float64frombits(rng.Uint64()))
	}
}

func FuzzWrap(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), -1e-20, DomainSide, math.Nextafter(DomainSide, 0), -3 * DomainSide, math.Inf(1), math.NaN()} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) { checkWrap(t, v) })
}
