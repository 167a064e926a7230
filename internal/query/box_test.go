package query

import (
	"testing"

	"jaws/internal/field"
	"jaws/internal/geom"
)

func TestBoxQueryLattice(t *testing.T) {
	s := testSpace()
	vsz := s.VoxelSize()
	lo := geom.Position{X: 0, Y: 0, Z: 0}
	hi := geom.Position{X: 4 * vsz, Y: 4 * vsz, Z: 4 * vsz}
	q, err := BoxQuery(1, s, 2, lo, hi, 1, field.KernelNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Points) != 64 {
		t.Fatalf("4×4×4 voxel box at stride 1 yielded %d points, want 64", len(q.Points))
	}
	if q.Step != 2 {
		t.Fatalf("step = %d", q.Step)
	}
	// Stride 2 quarters each axis count.
	q2, err := BoxQuery(2, s, 2, lo, hi, 2, field.KernelNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(q2.Points) != 8 {
		t.Fatalf("stride-2 box yielded %d points, want 8", len(q2.Points))
	}
}

func TestBoxQueryValidation(t *testing.T) {
	s := testSpace()
	lo := geom.Position{X: 1, Y: 1, Z: 1}
	hi := geom.Position{X: 2, Y: 2, Z: 2}
	if _, err := BoxQuery(1, s, 0, lo, hi, 0, field.KernelNone); err == nil {
		t.Fatal("zero stride accepted")
	}
	if _, err := BoxQuery(1, s, 0, hi, lo, 1, field.KernelNone); err == nil {
		t.Fatal("inverted corners accepted")
	}
	huge := geom.Position{X: 1 + 2*geom.DomainSide, Y: 2, Z: 2}
	if _, err := BoxQuery(1, s, 0, lo, huge, 1, field.KernelNone); err == nil {
		t.Fatal("over-domain box accepted")
	}
}

func TestBoxQueryMortonCompactAtoms(t *testing.T) {
	// A box spanning one atom-aligned octant must pre-process into
	// Morton-contiguous sub-queries (the §III.A containment property).
	s := testSpace()
	atomLen := float64(s.AtomSide) * s.VoxelSize()
	lo := geom.Position{X: 0, Y: 0, Z: 0}
	hi := geom.Position{X: 2 * atomLen, Y: 2 * atomLen, Z: 2 * atomLen}
	q, err := BoxQuery(1, s, 0, lo, hi, 8, field.KernelNone)
	if err != nil {
		t.Fatal(err)
	}
	sqs, err := PreProcess(q, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(sqs) != 8 {
		t.Fatalf("2×2×2-atom box split into %d sub-queries, want 8", len(sqs))
	}
	for i, sq := range sqs {
		if int(sq.Atom.Code) != i {
			t.Fatalf("atoms not Morton-contiguous: sub-query %d has code %d", i, sq.Atom.Code)
		}
	}
}

func TestSphereQuery(t *testing.T) {
	s := testSpace()
	c := geom.Position{X: 3, Y: 3, Z: 3}
	q, err := SphereQuery(1, s, 1, c, 0.3, 2, field.KernelLag4)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Points) == 0 {
		t.Fatal("empty sphere")
	}
	for _, p := range q.Points {
		if dx, dy, dz := p.X-c.X, p.Y-c.Y, p.Z-c.Z; float64(dx*dx)+float64(dy*dy)+float64(dz*dz) > 0.3*0.3+1e-9 {
			t.Fatalf("point %v outside the sphere", p)
		}
	}
	// A sphere has fewer points than its bounding box.
	box, _ := BoxQuery(2, s, 1,
		geom.Position{X: c.X - 0.3, Y: c.Y - 0.3, Z: c.Z - 0.3},
		geom.Position{X: c.X + 0.3, Y: c.Y + 0.3, Z: c.Z + 0.3},
		2, field.KernelLag4)
	if len(q.Points) >= len(box.Points) {
		t.Fatalf("sphere (%d points) not smaller than bounding box (%d)", len(q.Points), len(box.Points))
	}
}

func TestSphereQueryValidation(t *testing.T) {
	s := testSpace()
	c := geom.Position{X: 1, Y: 1, Z: 1}
	if _, err := SphereQuery(1, s, 0, c, 0, 1, field.KernelNone); err == nil {
		t.Fatal("zero radius accepted")
	}
	if _, err := SphereQuery(1, s, 0, c, geom.DomainSide, 1, field.KernelNone); err == nil {
		t.Fatal("over-half-domain radius accepted")
	}
	if _, err := SphereQuery(1, s, 0, c, 0.5, 0, field.KernelNone); err == nil {
		t.Fatal("zero stride accepted")
	}
}
