package query

import (
	"math"
	"testing"

	"jaws/internal/field"
	"jaws/internal/geom"
	"jaws/internal/store"
)

func TestDerivWeightsKnown(t *testing.T) {
	cases := []struct {
		k    int
		want []float64
	}{
		{2, []float64{-1, 1}},
		{3, []float64{-1.5, 2, -0.5}},
		{4, []float64{-11.0 / 6, 3, -1.5, 1.0 / 3}},
	}
	for _, tc := range cases {
		got := DerivWeights(tc.k)
		if len(got) != tc.k {
			t.Fatalf("DerivWeights(%d) has %d coefficients", tc.k, len(got))
		}
		for j := range got {
			if math.Abs(got[j]-tc.want[j]) > 1e-12 {
				t.Errorf("DerivWeights(%d)[%d] = %v, want %v", tc.k, j, got[j], tc.want[j])
			}
		}
	}
}

// TestDerivWeightsPolynomialExactness checks the defining property of the
// order-k forward stencil: it differentiates polynomials of degree < k
// exactly at the anchor node. f(x) = x^d on nodes 0..k−1 has f'(0) = 0
// for d ≥ 2 and f'(0) = 1 for d = 1.
func TestDerivWeightsPolynomialExactness(t *testing.T) {
	for k := 2; k <= 6; k++ {
		w := DerivWeights(k)
		for d := 0; d < k; d++ {
			sum := 0.0
			for j := 0; j < k; j++ {
				sum += float64(w[j] * math.Pow(float64(j), float64(d)))
			}
			want := 0.0
			if d == 1 {
				want = 1
			}
			if math.Abs(sum-want) > 1e-9 {
				t.Errorf("k=%d: stencil applied to x^%d gives %v, want %v", k, d, sum, want)
			}
		}
	}
}

func TestDerivWeightsPanicsBelowTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DerivWeights(1) did not panic")
		}
	}()
	DerivWeights(1)
}

// TestPreProcessDerivChain checks that a derivative query fans out into
// congruent per-step partitions: the same atom codes at every chain step,
// with the same positions in the same order (the engine's differencing
// invariant), and ChainLen × (codes per step) sub-queries in total.
func TestPreProcessDerivChain(t *testing.T) {
	space := geom.Space{GridSide: 64, AtomSide: 16}
	q := &Query{
		ID:         1,
		Step:       3,
		DerivSteps: 3,
		Kernel:     field.KernelTrilinear,
		Points: []geom.Position{
			{X: 0.1, Y: 0.1, Z: 0.1},
			{X: 3.0, Y: 3.0, Z: 3.0},
			{X: 0.12, Y: 0.11, Z: 0.1},
		},
	}
	sqs, err := PreProcess(q, space)
	if err != nil {
		t.Fatal(err)
	}
	byStep := map[int]map[uint64][]geom.Position{}
	for _, sq := range sqs {
		if sq.Atom.Step < q.Step || sq.Atom.Step >= q.Step+q.DerivSteps {
			t.Fatalf("sub-query step %d outside chain [%d, %d)", sq.Atom.Step, q.Step, q.Step+q.DerivSteps)
		}
		m := byStep[sq.Atom.Step]
		if m == nil {
			m = map[uint64][]geom.Position{}
			byStep[sq.Atom.Step] = m
		}
		m[uint64(sq.Atom.Code)] = sq.Points
	}
	if len(byStep) != q.DerivSteps {
		t.Fatalf("chain covers %d steps, want %d", len(byStep), q.DerivSteps)
	}
	base := byStep[q.Step]
	if len(base) == 0 {
		t.Fatal("no sub-queries at the anchor step")
	}
	if want := q.DerivSteps * len(base); len(sqs) != want {
		t.Fatalf("%d sub-queries, want %d (chain × per-step groups)", len(sqs), want)
	}
	for s := q.Step + 1; s < q.Step+q.DerivSteps; s++ {
		m := byStep[s]
		if len(m) != len(base) {
			t.Fatalf("step %d has %d atom groups, anchor has %d", s, len(m), len(base))
		}
		for code, pts := range base {
			other, ok := m[code]
			if !ok {
				t.Fatalf("step %d missing atom code %#x present at anchor", s, code)
			}
			if len(other) != len(pts) {
				t.Fatalf("step %d code %#x: %d points, anchor has %d", s, code, len(other), len(pts))
			}
			for i := range pts {
				if pts[i] != other[i] {
					t.Fatalf("step %d code %#x: point %d differs from anchor (order not congruent)", s, code, i)
				}
			}
		}
	}
}

// TestAtomsSpansChain checks A(q) widens across the chain: a derivative
// query's atom set is exactly its point-query twin's set replicated at
// each chain step.
func TestAtomsSpansChain(t *testing.T) {
	space := geom.Space{GridSide: 64, AtomSide: 16}
	pts := []geom.Position{{X: 0.1, Y: 0.1, Z: 0.1}, {X: 2.5, Y: 2.5, Z: 2.5}}
	point := &Query{ID: 1, Step: 2, Points: pts}
	deriv := &Query{ID: 2, Step: 2, DerivSteps: 4, Points: pts}

	pa := Atoms(point, space)
	da := Atoms(deriv, space)
	if len(da) != len(pa)*deriv.DerivSteps {
		t.Fatalf("deriv A(q) has %d atoms, want %d × %d", len(da), len(pa), deriv.DerivSteps)
	}
	for id := range pa {
		for s := 0; s < deriv.DerivSteps; s++ {
			want := store.AtomID{Step: id.Step + s, Code: id.Code}
			if !da[want] {
				t.Fatalf("deriv A(q) missing %v", want)
			}
		}
	}

	// Sharing is symmetric across the widened set: the deriv query shares
	// with a point query at a later chain step even though their anchor
	// steps differ.
	later := &Query{ID: 3, Step: 4, Points: pts}
	if !shares(deriv, later, space) || !shares(later, deriv, space) {
		t.Fatal("deriv query does not share with point query inside its chain")
	}
	outside := &Query{ID: 4, Step: 9, Points: pts}
	if shares(deriv, outside, space) {
		t.Fatal("deriv query shares with point query outside its chain")
	}
}

func TestValidateDerivSteps(t *testing.T) {
	q := &Query{ID: 1, Points: []geom.Position{{}}, DerivSteps: -1}
	if err := q.Validate(); err == nil {
		t.Fatal("negative DerivSteps accepted")
	}
}
