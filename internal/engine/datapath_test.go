package engine

import (
	"math/rand"
	"runtime"
	"testing"

	"jaws/internal/cache"
	"jaws/internal/field"
	"jaws/internal/geom"
	"jaws/internal/job"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/store"
)

// scatter draws n positions over the whole domain.
func scatter(rng *rand.Rand, n int) []geom.Position {
	pts := make([]geom.Position, n)
	for i := range pts {
		pts[i] = geom.Position{
			X: rng.Float64() * geom.DomainSide,
			Y: rng.Float64() * geom.DomainSide,
			Z: rng.Float64() * geom.DomainSide,
		}
	}
	return pts
}

// TestResultsMatchHandAssembly runs a plain and a derivative query, each
// scattered over every atom of a step and large enough that their batches
// fan out across the worker pool, and compares the served positions with
// the same pipeline applied by hand, with == on every float: a plain
// query's values come in the order its sub-queries execute (under NoShare,
// the pre-processor's), a derivative query's in partition order, each the
// Fornberg stencil over the per-step kernel outputs summed in chain order.
func TestResultsMatchHandAssembly(t *testing.T) {
	s := testStore(t)
	space := s.Space()
	rng := rand.New(rand.NewSource(21))
	const anchor, k = 0, 3
	plain := &query.Query{ID: 1, JobID: 1, Step: 2, Points: scatter(rng, 3000), Kernel: field.KernelLag4}
	deriv := &query.Query{ID: 2, JobID: 2, Step: anchor, DerivSteps: k, Points: scatter(rng, 3000), Kernel: field.KernelLag4}

	e := newEngine(t, s, sched.NewNoShare(), false, func(c *Config) {
		c.Cache = cache.New(256, cache.NewLRUK(2, 0))
		c.Compute = true
		c.KeepResults = true
		c.Parallelism = 3
	})
	rep, err := e.Run([]*job.Job{
		{ID: 1, User: 1, Type: job.Batched, Queries: []*query.Query{plain}},
		{ID: 2, User: 1, Type: job.Batched, Queries: []*query.Query{deriv}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("%d results, want 2", len(rep.Results))
	}
	got := map[query.ID][]PointSample{}
	for _, r := range rep.Results {
		got[r.Query.ID] = r.Positions
	}

	atomOf := func(id store.AtomID) *field.Atom {
		a, _, err := s.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	check := func(name string, got, want []PointSample) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d positions, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: position %d is %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}

	sqs, err := query.PreProcess(plain, space)
	if err != nil {
		t.Fatal(err)
	}
	var want []PointSample
	for _, sq := range sqs {
		a, ac := atomOf(sq.Atom), geom.AtomFromCode(sq.Atom.Code)
		for _, p := range sq.Points {
			want = append(want, PointSample{Pos: geom3{X: p.X, Y: p.Y, Z: p.Z}, Val: field.Interpolate(plain.Kernel, a, space, ac, p)})
		}
	}
	check("plain", got[plain.ID], want)

	sqs, err = query.PreProcess(deriv, space)
	if err != nil {
		t.Fatal(err)
	}
	w := query.DerivWeights(k)
	want = want[:0]
	for _, sq := range sqs {
		if sq.Atom.Step != anchor {
			continue
		}
		ac := geom.AtomFromCode(sq.Atom.Code)
		var atoms [k]*field.Atom
		for j := range atoms {
			atoms[j] = atomOf(store.AtomID{Step: anchor + j, Code: sq.Atom.Code})
		}
		for _, p := range sq.Points {
			var val [field.Components]float64
			for j := 0; j < k; j++ {
				v := field.Interpolate(deriv.Kernel, atoms[j], space, ac, p)
				for c := range val {
					val[c] += float64(w[j] * v[c])
				}
			}
			for c := range val {
				val[c] /= query.StepDT
			}
			want = append(want, PointSample{Pos: geom3{X: p.X, Y: p.Y, Z: p.Z}, Val: val})
		}
	}
	check("derivative", got[deriv.ID], want)
}

// TestDecisionAllocsIndependentOfBatchSize pins the data path of one
// decision: a batch of n resident sub-queries, kernels evaluated and
// results kept, allocates nothing, for n of 8 and of 64 alike. The
// decision measured is the middle one of three over the same queries, so
// it neither allocates the queries' result arrays (the first does) nor
// completes them (the last does): what is left is the cache hit, the
// per-batch scratch, the fan-out and the kernels.
func TestDecisionAllocsIndependentOfBatchSize(t *testing.T) {
	s := testStore(t)
	c := cache.New(64, cache.NewLRUK(2, 0))
	e := newEngine(t, s, sched.NewLifeRaft(testCost, 0, c.Contains), false, func(cfg *Config) {
		cfg.Cache = c
		cfg.Compute = true
		cfg.KeepResults = true
		cfg.Parallelism = 2
	})
	defer e.closePool()
	next := query.ID(1)
	// round dispatches n queries, each with points in the same three atoms,
	// and executes the three decisions; it returns the allocations of the
	// second.
	round := func(n int) uint64 {
		for i := 0; i < n; i++ {
			pts := append(pointsInAtom(s, 0, 1, 1, 40), pointsInAtom(s, 1, 1, 1, 40)...)
			pts = append(pts, pointsInAtom(s, 2, 1, 1, 40)...)
			q := &query.Query{ID: next, JobID: int64(next), Step: 1, Points: pts, Kernel: field.KernelLag4}
			next++
			e.dispatch(q)
		}
		var during uint64
		for d := 0; e.cfg.Sched.Pending() > 0; d++ {
			batches := e.cfg.Sched.NextBatch(e.clock.Now())
			if len(batches) != 1 || len(batches[0].SubQueries) != n {
				t.Fatalf("decision %d: %d batches, want one of %d sub-queries", d, len(batches), n)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := e.execute(batches); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if d == 1 {
				during = after.Mallocs - before.Mallocs
			}
		}
		return during
	}
	round(64) // atoms become resident; scratch, freelists and the pool warm up
	for _, n := range []int{8, 64} {
		// The runtime's own goroutines may allocate meanwhile: the least of
		// a few rounds is the decision's own count.
		least := round(n)
		for i := 0; i < 4; i++ {
			least = min(least, round(n))
		}
		if least != 0 {
			t.Errorf("decision over a batch of %d sub-queries: %d allocs, want 0", n, least)
		}
	}
	if got := len(e.report.Results); got != 64+5*8+5*64 {
		t.Fatalf("%d queries completed, want %d", got, 64+5*8+5*64)
	}
	// The batches of 64 fanned out across the pool: every sample of every
	// query must have been written, by whichever goroutine, with the value
	// a direct evaluation gives.
	space := s.Space()
	for _, r := range e.report.Results {
		if len(r.Positions) != len(r.Query.Points) {
			t.Fatalf("query %d: %d positions for %d points", r.Query.ID, len(r.Positions), len(r.Query.Points))
		}
		for _, ps := range r.Positions {
			pos := geom.Position{X: ps.Pos.X, Y: ps.Pos.Y, Z: ps.Pos.Z}
			ac := space.AtomOf(pos)
			v, _ := c.Get(store.AtomID{Step: r.Query.Step, Code: ac.Code()})
			if want := field.Interpolate(r.Query.Kernel, v.(*field.Atom), space, ac, pos); ps.Val != want {
				t.Fatalf("query %d at %+v: %v, want %v", r.Query.ID, pos, ps.Val, want)
			}
		}
	}
}
