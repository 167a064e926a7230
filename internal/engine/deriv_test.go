package engine

import (
	"math"
	"slices"
	"testing"

	"jaws/internal/field"
	"jaws/internal/geom"
	"jaws/internal/job"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/store"
)

// TestDerivQueryFiniteDifference runs one temporal-derivative query
// through the full engine and checks the assembled values against the
// same pipeline applied by hand: interpolate the chain's atoms step by
// step, then difference with the Fornberg stencil over StepDT. The two
// must agree to float round-off, since assembleDeriv performs exactly
// these operations.
func TestDerivQueryFiniteDifference(t *testing.T) {
	s := testStore(t)
	e := newEngine(t, s, sched.NewNoShare(), false, func(c *Config) {
		c.Compute = true
		c.KeepResults = true
		c.Parallelism = 4
	})
	const anchor = 1
	const k = 3
	pts := pointsInAtom(s, 1, 1, 1, 20)
	j := &job.Job{ID: 1, User: 1, Type: job.Batched}
	j.Queries = append(j.Queries, &query.Query{
		ID: 1, JobID: 1, Step: anchor, DerivSteps: k,
		Points: pts,
		Kernel: field.KernelTrilinear,
	})
	rep, err := e.Run([]*job.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || len(rep.Results[0].Positions) != len(pts) {
		t.Fatalf("want %d assembled positions, got %+v", len(pts), rep.Results)
	}

	// Reproduce the pipeline by hand for each returned position.
	space := s.Space()
	w := query.DerivWeights(k)
	for _, pv := range rep.Results[0].Positions {
		pos := geom.Position{X: pv.Pos.X, Y: pv.Pos.Y, Z: pv.Pos.Z}
		ac := space.AtomOf(pos)
		var want [field.Components]float64
		for j := 0; j < k; j++ {
			atom, _, err := s.Read(store.AtomID{Step: anchor + j, Code: ac.Code()})
			if err != nil {
				t.Fatal(err)
			}
			v := field.Interpolate(field.KernelTrilinear, atom, space, ac, pos)
			for c := range want {
				want[c] += float64(w[j] * v[c])
			}
		}
		for c := range want {
			want[c] /= query.StepDT
		}
		for c := range want {
			if math.IsNaN(pv.Val[c]) || math.Abs(pv.Val[c]-want[c]) > 1e-9*(1+math.Abs(want[c])) {
				t.Fatalf("deriv value %g, want %g (component %d at %+v)", pv.Val[c], want[c], c, pos)
			}
		}
	}

	// The estimates should also track the analytic ∂/∂t: the stencil
	// applied to the exact field values differs from the engine's only by
	// interpolation error, so demand agreement within a loose band.
	f := s.Field()
	close := 0
	for _, pv := range rep.Results[0].Positions {
		pos := geom.Position{X: pv.Pos.X, Y: pv.Pos.Y, Z: pv.Pos.Z}
		var truth [field.Components]float64
		for j := 0; j < k; j++ {
			v := f.Eval(anchor+j, pos)
			for c := range truth {
				truth[c] += float64(w[j] * v[c])
			}
		}
		ok := true
		for c := range truth {
			truth[c] /= query.StepDT
			if math.Abs(pv.Val[c]-float64(truth[c])) > 0.5*(1+math.Abs(truth[c])) {
				ok = false
			}
		}
		if ok {
			close++
		}
	}
	if close < len(pts)/2 {
		t.Fatalf("only %d/%d derivative estimates near the analytic stencil", close, len(pts))
	}
}

// TestDerivQueryAccounting checks a derivative query's bookkeeping: it
// completes exactly once, touches ChainLen step buckets' worth of
// sub-queries, and runs fine without KeepResults (no accumulator leaks).
func TestDerivQueryAccounting(t *testing.T) {
	s := testStore(t)
	e := newEngine(t, s, sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 4}), false, func(c *Config) {
		c.Compute = true // exercise computeBatch's chain path without retention
	})
	pts := pointsInAtom(s, 2, 2, 2, 10)
	j := &job.Job{ID: 1, User: 1, Type: job.Batched}
	j.Queries = append(j.Queries, &query.Query{
		ID: 1, JobID: 1, Step: 0, DerivSteps: 4,
		Points: pts,
		Kernel: field.KernelNone,
	})
	rep, err := e.Run([]*job.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 1 {
		t.Fatalf("Completed = %d, want 1 (the logical query, not its chain)", rep.Completed)
	}
	// All points sit in one atom, so the chain needs exactly 4 atom reads
	// (one per step; steps never share atoms).
	if rep.CacheStats.Misses != 4 {
		t.Fatalf("cache misses = %d, want 4 (one atom per chain step)", rep.CacheStats.Misses)
	}
	if rep.Results != nil {
		t.Fatalf("results retained without KeepResults: %+v", rep.Results)
	}
}

// TestDifferenceAllocs pins a derivative query's completion to no
// allocation: the engine computes a chain length's weights the first time
// it completes such a chain and reuses them, and differencing works in
// place. The weights it keeps are DerivWeights', whatever order the chain
// lengths come in.
func TestDifferenceAllocs(t *testing.T) {
	e := newEngine(t, testStore(t), sched.NewNoShare(), false)
	for _, k := range []int{5, 2, 9, 3, 5} {
		w := e.derivWeights(k)
		if want := query.DerivWeights(k); !slices.Equal(w, want) || &e.derivWeights(k)[0] != &w[0] {
			t.Fatalf("k=%d: weights %v, want %v, kept for the next chain", k, w, want)
		}
	}
	const k, n = 4, 8
	st := &queryState{
		q:      &query.Query{DerivSteps: k, Points: make([]geom.Position, n)},
		result: &QueryResult{Positions: make([]PointSample, k*n)},
		filled: k * n,
	}
	if allocs := testing.AllocsPerRun(100, func() {
		st.result.Positions = st.result.Positions[:k*n]
		st.difference(e.derivWeights(k))
	}); allocs != 0 {
		t.Errorf("differencing a %d-step chain: %v allocs, want 0", k, allocs)
	}
}
