package engine

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"jaws/internal/cache"
	"jaws/internal/field"
	"jaws/internal/job"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/store"
)

// bulkSession opens a daemon-shaped session over a store whose steps all
// fit the cache: kernels evaluated, nothing gated.
func bulkSession(t testing.TB) (*Session, *store.Store) {
	t.Helper()
	st := testStore(t)
	c := cache.New(256, cache.NewLRUK(2, 0))
	js := sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 4, Resident: c.Contains})
	sess, err := NewSession(Config{Store: st, Cache: c, Sched: js, Cost: testCost, Compute: true})
	if err != nil {
		t.Fatal(err)
	}
	return sess, st
}

// oneQueryJob wraps q in a batched job of its own, sharing its ID.
func oneQueryJob(q *query.Query) *job.Job {
	q.JobID = int64(q.ID)
	return &job.Job{ID: q.JobID, User: 1, Type: job.Batched, Queries: []*query.Query{q}}
}

// freeResults is how many results wait in the session's free list.
func freeResults(s *Session) int {
	l := s.eng.results
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free)
}

// TestDispatchAllocs pins the frame: on a warmed engine, dispatching a
// query no larger than one already served allocates nothing — partition,
// state and gate state all live in a recycled frame. A plain query fits
// the frame a derivative query over the same points sized.
func TestDispatchAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := testStore(t)
	c := cache.New(256, cache.NewLRUK(2, 0))
	e := newEngine(t, s, sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 4, Resident: c.Contains}), false, func(cfg *Config) {
		cfg.Cache = c
	})
	pts := scatter(rand.New(rand.NewSource(5)), 512)
	deriv := &query.Query{ID: 1, JobID: 1, Step: 0, DerivSteps: 3, Points: pts[:170], Kernel: field.KernelLag6}
	plain := &query.Query{ID: 2, JobID: 2, Step: 1, Points: pts[:170], Kernel: field.KernelLag6}
	bulk := &query.Query{ID: 3, JobID: 3, Step: 1, Points: pts, Kernel: field.KernelLag6}
	for range 3 { // frames, scratch and the scheduler's queues reach their size
		decide(t, e, bulk)
		decide(t, e, deriv)
	}
	if len(e.freeStates) != 1 {
		t.Fatalf("%d free frames after one query at a time, want 1", len(e.freeStates))
	}
	for _, q := range []*query.Query{bulk, deriv, plain} {
		// The least of many: the count with the pre-processor's pooled
		// scratch at hand. Under the race detector sync.Pool drops a quarter
		// of what is put back or more, and the next dispatch regrows it.
		var allocs []uint64
		for range 21 {
			m0 := mallocs()
			e.dispatch(q)
			allocs = append(allocs, mallocs()-m0)
			decide(t, e)
		}
		if least := slices.Min(allocs); least != 0 {
			t.Errorf("dispatch of query %d (%d points, chain %d): %d allocs (least; all: %v), want 0",
				q.ID, len(q.Points), q.ChainLen(), least, allocs)
		}
	}
	if len(e.freeStates) != 1 || len(e.retiredStates) != 0 {
		t.Fatalf("%d free and %d retired frames at the end, want the one frame free", len(e.freeStates), len(e.retiredStates))
	}
}

// TestFittingFrameReuse pins the fitting-frame rule: dispatch takes the
// smallest free frame whose point array holds the query, wherever it sits.
// Two queries in flight at once size two frames, 512 points and 17; under
// NoShare they complete in arrival order, so the small frame is the one
// freed last. A last-in-first-out list then hands it to the next bulk
// query, which regrows it, and the large frame to the next small one; taken
// by fit, every later dispatch allocates nothing and neither frame grows.
func TestFittingFrameReuse(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := newEngine(t, testStore(t), sched.NewNoShare(), false, func(cfg *Config) {
		cfg.Cache = cache.New(256, cache.NewLRUK(2, 0))
	})
	pts := scatter(rand.New(rand.NewSource(5)), 512)
	bulk := &query.Query{ID: 1, JobID: 1, Step: 1, Points: pts, Kernel: field.KernelLag6}
	small := &query.Query{ID: 2, JobID: 2, Step: 1, Points: pts[:17], Kernel: field.KernelLag6}
	for range 3 { // two frames, the scratch and the scheduler's queues reach their size
		decide(t, e, bulk, small)
	}
	caps := func() []int {
		var out []int
		for _, st := range e.freeStates {
			out = append(out, st.PointCap())
		}
		return out
	}
	if got := caps(); !slices.Equal(got, []int{17, 512}) {
		t.Fatalf("free frames hold %v points after a 512- and a 17-point query in flight together, want [17 512]", got)
	}
	for _, q := range []*query.Query{bulk, small, bulk, bulk, small} {
		// The least of many, for the reason TestDispatchAllocs gives.
		var allocs []uint64
		for range 21 {
			m0 := mallocs()
			e.dispatch(q)
			allocs = append(allocs, mallocs()-m0)
			decide(t, e)
		}
		if least := slices.Min(allocs); least != 0 {
			t.Errorf("dispatch of %d points with a free frame that fits: %d allocs (least; all: %v), want 0", len(q.Points), least, allocs)
		}
	}
	if got := caps(); !slices.Equal(got, []int{17, 512}) {
		t.Errorf("free frames hold %v points at the end, want [17 512]: a frame grew", got)
	}
}

// TestSessionQueryAllocs pins a whole bulk request on a warmed session,
// Submit → result → Release: the Submit argument is all it allocates, for
// a 512-point scattered query and for a 170-point derivative over three
// steps (plus the stencil weights) alike. Before frames it was 11 objects
// and 52 KiB.
func TestSessionQueryAllocs(t *testing.T) {
	sess, _ := bulkSession(t)
	defer sess.Close()
	pts := scatter(rand.New(rand.NewSource(3)), 512)
	for _, tc := range []struct {
		name string
		q    *query.Query
	}{
		{"512 points", &query.Query{ID: 1, Step: 1, Points: pts, Kernel: field.KernelLag6}},
		{"170 points, 3 steps", &query.Query{ID: 2, Step: 0, DerivSteps: 3, Points: pts[:170], Kernel: field.KernelLag6}},
	} {
		j := oneQueryJob(tc.q)
		serve := func() {
			tc.q.Arrival = 0 // Submit shifted it to the session's clock
			if err := sess.Submit(j); err != nil {
				t.Fatal(err)
			}
			r := <-sess.Results()
			if len(r.Positions) != len(tc.q.Points) {
				t.Fatalf("%s: %d positions for %d points", tc.name, len(r.Positions), len(tc.q.Points))
			}
			r.Release()
		}
		for range 5 { // atoms resident and filled; frame, result and queues sized
			serve()
		}
		// The least of many, for the reason TestDispatchAllocs gives.
		var objects, bytes []uint64
		var m0, m1 runtime.MemStats
		for range 41 {
			runtime.ReadMemStats(&m0)
			serve()
			runtime.ReadMemStats(&m1)
			objects = append(objects, m1.Mallocs-m0.Mallocs)
			bytes = append(bytes, m1.TotalAlloc-m0.TotalAlloc)
		}
		o, b := slices.Min(objects), slices.Min(bytes)
		t.Logf("%s: %d objects and %d B per request", tc.name, o, b)
		if o > 3 || b > 1<<10 {
			t.Errorf("%s: %d objects and %d B per request, want at most 3 and 1 KiB", tc.name, o, b)
		}
	}
}

// TestResultStableUntilRelease: a result is the consumer's until it is
// released, however many queries the session serves meanwhile. Sixteen
// results are held while ten thousand more queries complete and recycle
// theirs; every held value must still be what an Engine.Run that keeps its
// results computes for the same query. Released, the held results are what
// the next queries get.
func TestResultStableUntilRelease(t *testing.T) {
	sess, st := bulkSession(t)
	rng := rand.New(rand.NewSource(11))
	const held, churn = 16, 10000
	mk := func(id int64) *query.Query {
		q := &query.Query{ID: query.ID(id), Step: int(id % 2), Points: scatter(rng, 20+rng.Intn(200)), Kernel: field.KernelLag4}
		if id%3 == 0 {
			q.DerivSteps = 2 + int(id%2)
		}
		return q
	}
	var queries []*query.Query
	var jobs []*job.Job
	for id := int64(1); id <= held; id++ {
		queries = append(queries, mk(id))
		jobs = append(jobs, oneQueryJob(queries[id-1]))
	}
	if err := sess.Submit(jobs...); err != nil {
		t.Fatal(err)
	}
	holding := map[*QueryResult]bool{}
	for range held {
		holding[<-sess.Results()] = true
	}
	for id := int64(held + 1); id <= held+churn; id += 8 {
		var burst []*job.Job
		for k := int64(0); k < 8; k++ {
			q := &query.Query{ID: query.ID(id + k), Step: int(k % 4), Points: scatter(rng, 8+rng.Intn(300)), Kernel: field.KernelLag4}
			if k == 5 {
				q.Step, q.DerivSteps = 0, 4
			}
			burst = append(burst, oneQueryJob(q))
		}
		if err := sess.Submit(burst...); err != nil {
			t.Fatal(err)
		}
		for range burst {
			r := <-sess.Results()
			if holding[r] {
				t.Fatalf("query %d was handed a result that is still held", r.Query.ID)
			}
			r.Release()
		}
	}

	// The reference: the same queries through Run on an engine of its own.
	var refJobs []*job.Job
	for _, q := range queries {
		cp := *q
		cp.Arrival = 0
		refJobs = append(refJobs, oneQueryJob(&cp))
	}
	ref := newEngine(t, st, sched.NewNoShare(), false, func(cfg *Config) {
		cfg.Cache = cache.New(256, cache.NewLRUK(2, 0))
		cfg.Compute = true
		cfg.KeepResults = true
	})
	rep, err := ref.Run(refJobs)
	if err != nil {
		t.Fatal(err)
	}
	want := map[query.ID]map[geom3][field.Components]float64{}
	for _, r := range rep.Results {
		vals := map[geom3][field.Components]float64{}
		for _, ps := range r.Positions {
			vals[ps.Pos] = ps.Val
		}
		want[r.Query.ID] = vals
	}
	for r := range holding {
		if len(r.Positions) != len(r.Query.Points) {
			t.Fatalf("held query %d: %d positions for %d points", r.Query.ID, len(r.Positions), len(r.Query.Points))
		}
		for _, ps := range r.Positions {
			if w, ok := want[r.Query.ID][ps.Pos]; !ok || w != ps.Val {
				t.Fatalf("held query %d at %+v: %v, Run computed %v (found %v)", r.Query.ID, ps.Pos, ps.Val, w, ok)
			}
		}
	}

	// Released, they come back: the free list holds every result the
	// session ever made, and the next queries are handed held ones.
	before := freeResults(sess)
	for r := range holding {
		r.Release()
	}
	if got := freeResults(sess); got != before+held {
		t.Fatalf("%d free results after releasing %d on top of %d", got, held, before)
	}
	if err := sess.Submit(oneQueryJob(mk(held + churn + 1))); err != nil {
		t.Fatal(err)
	}
	if r := <-sess.Results(); !holding[r] {
		t.Error("the query after the release was not handed a released result")
	}
	sess.Close()
}

// TestReleaseIsOptionalAndIdempotent: Release does nothing on a result
// already released, on one a session did not produce (Run's belong to the
// report; a hand-built one to its maker), and after the session closed.
func TestReleaseIsOptionalAndIdempotent(t *testing.T) {
	sess, st := bulkSession(t)
	submit := func(id int64) *QueryResult {
		t.Helper()
		q := &query.Query{ID: query.ID(id), Step: 1, Points: pointsInAtom(st, 1, 1, 1, 10), Kernel: field.KernelLag4}
		if err := sess.Submit(oneQueryJob(q)); err != nil {
			t.Fatal(err)
		}
		return <-sess.Results()
	}
	r := submit(1)
	r.Release()
	r.Release()
	if n := freeResults(sess); n != 1 {
		t.Fatalf("%d free results after releasing one result twice, want 1", n)
	}
	if r.Query != nil || len(r.Positions) != 0 {
		t.Fatalf("a released result still shows query %v and %d positions", r.Query, len(r.Positions))
	}
	late := submit(2)
	if late != r {
		t.Fatal("the second query was not handed the released result")
	}
	sess.Close()
	late.Release()
	if n := freeResults(sess); n != 0 {
		t.Fatalf("%d free results on a closed session, want none kept", n)
	}

	e := newEngine(t, st, sched.NewNoShare(), false, func(cfg *Config) {
		cfg.Compute = true
		cfg.KeepResults = true
	})
	rep, err := e.Run([]*job.Job{oneQueryJob(&query.Query{ID: 3, Step: 1, Points: pointsInAtom(st, 1, 1, 1, 10), Kernel: field.KernelLag4})})
	if err != nil {
		t.Fatal(err)
	}
	kept := rep.Results[0]
	kept.Release()
	if kept.Query == nil || len(kept.Positions) != 10 {
		t.Fatalf("Release emptied a result of Run's: query %v, %d positions", kept.Query, len(kept.Positions))
	}
	(&QueryResult{}).Release()
}

// TestCompletedFrameNotReusedWithinDecision is the query frame's twin of
// TestEvictedFrameNotReusedWithinDecision: a query the first batch of a
// decision completes keeps its frame — sub-query records intact, as the
// decision's batches still list them — until the decision's last batch has
// executed; only then is the frame free for a dispatch.
func TestCompletedFrameNotReusedWithinDecision(t *testing.T) {
	s := testStore(t)
	c := cache.New(16, cache.NewLRUK(1, 0))
	e := newEngine(t, s, sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 8, Resident: c.Contains}), false, func(cfg *Config) {
		cfg.Cache = c
	})
	first := &query.Query{ID: 1, JobID: 1, Step: 0, Points: pointsInAtom(s, 0, 1, 1, 10), Kernel: field.KernelNone}
	// The second batch's stencils reach beyond its atom: it reads footprint
	// atoms, and every read passes through the cache observer below.
	second := &query.Query{ID: 2, JobID: 2, Step: 0, Points: cornerPoints(s, 1, 1, 1, 10), Kernel: field.KernelLag4}
	e.dispatch(first)
	e.dispatch(second)
	batches := oneDecision(e)
	if len(batches) != 2 || batches[0].SubQueries[0].Query != first || batches[1].SubQueries[0].Query != second {
		t.Fatalf("decision %v, want one batch per query, the first query's first", batches)
	}
	firstSub := batches[0].SubQueries[0]
	// After the first query completed, the second batch's reads find its
	// frame retired.
	sawRetired := false
	check := func() {
		if e.report.Completed == 0 {
			return
		}
		sawRetired = true
		if len(e.freeStates) != 0 || len(e.retiredStates) != 1 {
			t.Errorf("mid-decision: %d free, %d retired frames; want the completed query's retired and none free", len(e.freeStates), len(e.retiredStates))
		}
		if firstSub.Query != first || len(firstSub.Points) != 10 {
			t.Errorf("mid-decision: the completed query's sub-query record was recycled: %+v", *firstSub)
		}
	}
	c.SetObserver(cache.Observer{Hit: func(store.AtomID) { check() }, Miss: func(store.AtomID) { check() }})
	if err := e.execute(batches); err != nil {
		t.Fatal(err)
	}
	if !sawRetired {
		t.Fatal("no cache lookup between the first query's completion and the decision's end: nothing was checked")
	}
	if len(e.freeStates) != 2 || len(e.retiredStates) != 0 {
		t.Fatalf("after the decision: %d free, %d retired frames; want both free", len(e.freeStates), len(e.retiredStates))
	}
	if firstSub.Query != nil {
		t.Fatal("a free frame still references its query")
	}
	// The next dispatch takes a freed frame; nothing new is made.
	e.dispatch(&query.Query{ID: 3, JobID: 3, Step: 0, Points: pointsInAtom(s, 2, 1, 1, 10), Kernel: field.KernelNone})
	if len(e.freeStates) != 1 {
		t.Fatalf("%d free frames after the next dispatch, want 1", len(e.freeStates))
	}
}

// TestAdmitArrivedDropsStaleQueries: compacting the arrived list leaves no
// query behind in the array's tail, where it would stay reachable until a
// later burst happened to overwrite it.
func TestAdmitArrivedDropsStaleQueries(t *testing.T) {
	s := testStore(t)
	e := newEngine(t, s, sched.NewNoShare(), false)
	for i := 1; i <= 12; i++ {
		e.onArrival(&query.Query{ID: query.ID(i), JobID: int64(i), Step: 0, Points: pointsInAtom(s, uint32(i%4), 0, 0, 5), Kernel: field.KernelNone})
	}
	if !e.admitArrived() || len(e.arrived) != 0 {
		t.Fatalf("%d queries still waiting after admission", len(e.arrived))
	}
	decide(t, e)
	for i, q := range e.arrived[:cap(e.arrived)] {
		if q != nil {
			t.Fatalf("slot %d of the arrived list still holds query %d after the burst drained", i, q.ID)
		}
	}
}

// TestReportDetachedFromEngine: Run and Close return a copy, so holding a
// report does not keep the engine — job graph, queues, frame lists — alive.
func TestReportDetachedFromEngine(t *testing.T) {
	s := testStore(t)
	e := newEngine(t, s, sched.NewNoShare(), false)
	rep, err := e.Run([]*job.Job{batchedJob(s, 1, []time.Duration{0, time.Millisecond}, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if rep == &e.report || rep.Completed != 2 || rep.Completed != e.report.Completed {
		t.Fatalf("Run returned %p (engine's own: %p), %d completed", rep, &e.report, rep.Completed)
	}
	sess := newTestSession(t)
	if err := sess.Submit(batchedJob(s, 1, []time.Duration{0}, 0)); err != nil {
		t.Fatal(err)
	}
	<-sess.Results()
	if rep := sess.Close(); rep == &sess.eng.report || rep.Completed != 1 {
		t.Fatalf("Close returned %p (engine's own: %p), %d completed", rep, &sess.eng.report, rep.Completed)
	}
}
