package engine

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"jaws/internal/cache"
	"jaws/internal/fault"
	"jaws/internal/field"
	"jaws/internal/job"
	"jaws/internal/obs"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/store"
)

func newTestSession(t testing.TB) *Session {
	t.Helper()
	s := testStore(t)
	c := cache.New(16, cache.NewLRUK(1, 0))
	js := sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 4, Resident: c.Contains})
	sess, err := NewSession(Config{Store: s, Cache: c, Sched: js, Cost: testCost, JobAware: true})
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func TestSessionStreamsResults(t *testing.T) {
	st := testStore(t)
	c := cache.New(16, cache.NewLRUK(1, 0))
	js := sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 4, Resident: c.Contains})
	sess, err := NewSession(Config{Store: st, Cache: c, Sched: js, Cost: testCost})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(batchedJob(st, 1, []time.Duration{0, 10 * time.Millisecond}, 0)); err != nil {
		t.Fatal(err)
	}
	got := 0
	timeout := time.After(10 * time.Second)
	for got < 2 {
		select {
		case r := <-sess.Results():
			if r == nil {
				t.Fatal("results channel closed early")
			}
			got++
		case <-timeout:
			t.Fatalf("timed out with %d results", got)
		}
	}
	rep := sess.Close()
	if rep == nil || rep.Completed != 2 {
		t.Fatalf("final report %+v", rep)
	}
	if sess.Err() != nil {
		t.Fatal(sess.Err())
	}
	// Stream must be closed now.
	if _, open := <-sess.Results(); open {
		t.Fatal("results channel left open after Close")
	}
}

func TestSessionMultipleSubmissionsAdvanceClock(t *testing.T) {
	st := testStore(t)
	c := cache.New(16, cache.NewLRUK(1, 0))
	sess, err := NewSession(Config{Store: st, Cache: c, Sched: sched.NewNoShare(), Cost: testCost})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(batchedJob(st, 1, []time.Duration{0}, 0)); err != nil {
		t.Fatal(err)
	}
	<-sess.Results()
	t1 := sess.eng.clock.Now()
	if t1 <= 0 {
		t.Fatal("virtual clock did not advance")
	}
	// Second submission starts at the current virtual time, not zero.
	if err := sess.Submit(batchedJob(st, 2, []time.Duration{0}, 1)); err != nil {
		t.Fatal(err)
	}
	r := <-sess.Results()
	if r.Query.Arrival < t1 {
		t.Fatalf("second submission arrived at %v, before session time %v", r.Query.Arrival, t1)
	}
	sess.Close()
}

func TestSessionOrderedJobAcrossSubmissions(t *testing.T) {
	st := testStore(t)
	c := cache.New(16, cache.NewLRUK(1, 0))
	js := sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 4, Resident: c.Contains})
	sess, err := NewSession(Config{Store: st, Cache: c, Sched: js, Cost: testCost, JobAware: true})
	if err != nil {
		t.Fatal(err)
	}
	j := orderedJob(st, 1, []int{0, 1, 2}, []uint32{0, 1, 2}, time.Millisecond, 0)
	if err := sess.Submit(j); err != nil {
		t.Fatal(err)
	}
	var seqs []int
	for i := 0; i < 3; i++ {
		r := <-sess.Results()
		seqs = append(seqs, r.Query.Seq)
	}
	for i, s := range seqs {
		if s != i {
			t.Fatalf("ordered job completed out of order: %v", seqs)
		}
	}
	sess.Close()
}

func TestSessionRejectsAfterClose(t *testing.T) {
	sess := newTestSession(t)
	sess.Close()
	st := testStore(t)
	if err := sess.Submit(batchedJob(st, 1, []time.Duration{0}, 0)); err == nil {
		t.Fatal("submit after close accepted")
	}
}

func TestSessionRejectsInvalidJob(t *testing.T) {
	sess := newTestSession(t)
	defer sess.Close()
	if err := sess.Submit(&job.Job{ID: 1}); err == nil {
		t.Fatal("invalid job accepted")
	}
}

func TestSessionDuplicateJobFailsLoop(t *testing.T) {
	st := testStore(t)
	c := cache.New(16, cache.NewLRUK(1, 0))
	sess, err := NewSession(Config{Store: st, Cache: c, Sched: sched.NewNoShare(), Cost: testCost})
	if err != nil {
		t.Fatal(err)
	}
	// One submission, so the first job is certainly still live when the
	// loop meets the second: only a live job's ID is remembered.
	j1 := batchedJob(st, 1, []time.Duration{0}, 0)
	j2 := batchedJob(st, 1, []time.Duration{0}, 1) // same ID
	if err := sess.Submit(j1, j2); err != nil {
		t.Fatal(err) // accepted at the API; the loop reports the failure
	}
	sess.Close()
	if sess.Err() == nil {
		t.Fatal("duplicate job ID not reported")
	}
}

func TestSessionSubmitAfterLoopFailureErrors(t *testing.T) {
	st := testStore(t)
	c := cache.New(16, cache.NewLRUK(1, 0))
	sess, err := NewSession(Config{Store: st, Cache: c, Sched: sched.NewNoShare(), Cost: testCost})
	if err != nil {
		t.Fatal(err)
	}
	// A duplicate of a live job's ID kills the loop; once it is dead the
	// session must reject further submissions instead of blocking forever.
	if err := sess.Submit(batchedJob(st, 1, []time.Duration{0}, 0), batchedJob(st, 1, []time.Duration{0}, 1)); err != nil {
		t.Fatal(err)
	}
	for range sess.Results() {
	} // drained: the loop has exited
	if sess.Err() == nil {
		t.Fatal("loop failure not recorded")
	}
	errc := make(chan error, 1)
	go func() { errc <- sess.Submit(batchedJob(st, 3, []time.Duration{0}, 2)) }()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("submit to a dead session accepted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submit to a dead session blocked")
	}
	sess.Close()
}

// TestSessionBoundedMemory serves 20 000 single-query jobs through one
// daemon-shaped session (8³-sample atoms, a 256-atom cache, kernels
// evaluated, 8-point requests over a resident working set): a finished job
// is forgotten and the list of completed results does not grow with the
// session's history, so the second half of the stream leaves the heap
// where the first half did. What still grows is the final report's
// response-time samples, 8 B a query (Engine.completedRT: only the closing
// report reads it, so a session never trims it); a remembered job would be
// 200 B and its points. Frames and results are
// recycled, so there are as many of either as queries were in flight at
// once — a burst — and no more after 22 000 queries than after 2 000; a
// derivative burst early on sizes the frames, and the plain queries that
// follow never grow one.
func TestSessionBoundedMemory(t *testing.T) {
	st := frameStore(t, 8, 0)
	c := cache.New(256, cache.NewLRUK(2, 0))
	js := sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 4, Resident: c.Contains})
	sess, err := NewSession(Config{Store: st, Cache: c, Sched: js, Cost: testCost, Compute: true})
	if err != nil {
		t.Fatal(err)
	}
	const half, burst = 10000, 8
	served := make(chan struct{})
	go func() {
		for r := range sess.Results() {
			r.Release()
			served <- struct{}{}
		}
	}()
	rng := rand.New(rand.NewSource(2))
	next := int64(1)
	// serve streams n jobs in bursts and returns the live heap afterwards,
	// the session idle.
	serve := func(n int) uint64 {
		for ; n > 0; n -= burst {
			jobs := make([]*job.Job, burst)
			for i := range jobs {
				q := &query.Query{ID: query.ID(next), JobID: next, Step: int(next % 4), Points: scatter(rng, 8), Kernel: field.KernelLag4}
				if next <= burst { // the first burst: chains over the first three steps
					q.Step, q.DerivSteps = 0, 3
				}
				jobs[i] = &job.Job{ID: next, User: 1, Type: job.Batched, Queries: []*query.Query{q}}
				next++
			}
			if err := sess.Submit(jobs...); err != nil {
				t.Fatal(err)
			}
			for range jobs {
				<-served
			}
		}
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	serve(2000) // every atom of the four steps resident and filled
	// The session is idle and its last result received: its lists are at rest.
	recycled := func() (frames, results int) {
		e := sess.eng
		return len(e.freeStates) + len(e.retiredStates), freeResults(sess)
	}
	frames, results := recycled()
	if frames == 0 || frames > burst || results == 0 || results > 2*burst {
		t.Errorf("%d frames and %d results recycled after bursts of %d, want at most a burst in the engine and another with the consumer", frames, results, burst)
	}
	first := serve(half)
	second := serve(half)
	if f, r := recycled(); f != frames || r != results {
		t.Errorf("%d frames and %d results recycled after 2 000 queries, %d and %d after %d more: the lists grow with the session's history", frames, results, f, r, 2*half)
	}
	rep := sess.Close()
	if err := sess.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 2000+2*half {
		t.Fatalf("%d queries completed, want %d", rep.Completed, 2000+2*half)
	}
	if n := len(sess.eng.jobsByID); n != 0 {
		t.Errorf("%d jobs still remembered after all completed", n)
	}
	if len(rep.Results) != 0 || cap(rep.Results) > 2*burst {
		t.Errorf("completed-results list: len %d cap %d, want it empty and no longer than a burst of %d", len(rep.Results), cap(rep.Results), burst)
	}
	if float64(second) > 1.05*float64(first) {
		t.Errorf("live heap %d B after %d queries, %d B after %d more: the session grows with its history", first, 2000+half, second, half)
	}
	t.Logf("live heap %d B, then %d B", first, second)
}

func TestSessionHonoursCrashFault(t *testing.T) {
	st := testStore(t)
	c := cache.New(16, cache.NewLRUK(1, 0))
	spec, err := fault.ParseSpec("crash@0:at=1ms")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(Config{
		Store: st, Cache: c, Sched: sched.NewNoShare(), Cost: testCost,
		Fault: fault.New(spec, 1, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(batchedJob(st, 1, []time.Duration{0}, 0)); err != nil {
		t.Fatal(err)
	}
	for range sess.Results() {
	} // the stream must close when the node dies
	var nce *fault.NodeCrashError
	if !errors.As(sess.Err(), &nce) {
		t.Fatalf("session error = %v, want NodeCrashError", sess.Err())
	}
	if err := sess.Submit(batchedJob(st, 2, []time.Duration{0}, 1)); err == nil {
		t.Fatal("submit to a crashed session accepted")
	}
}

func TestSessionConcurrentSubmitters(t *testing.T) {
	st := testStore(t)
	c := cache.New(16, cache.NewLRUK(1, 0))
	js := sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 4, Resident: c.Contains})
	sess, err := NewSession(Config{Store: st, Cache: c, Sched: js, Cost: testCost})
	if err != nil {
		t.Fatal(err)
	}
	const submitters, each = 4, 5
	done := make(chan error, submitters)
	for w := 0; w < submitters; w++ {
		go func(w int) {
			for i := 0; i < each; i++ {
				id := int64(w*100 + i + 1)
				if err := sess.Submit(batchedJob(st, id, []time.Duration{0}, uint32(id%4))); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < submitters; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	timeout := time.After(20 * time.Second)
	for got < submitters*each {
		select {
		case <-sess.Results():
			got++
		case <-timeout:
			t.Fatalf("timed out with %d results", got)
		}
	}
	rep := sess.Close()
	if rep.Completed != submitters*each {
		t.Fatalf("completed %d", rep.Completed)
	}
}

func BenchmarkSessionThroughput(b *testing.B) {
	st := testStore(b)
	c := cache.New(16, cache.NewLRUK(1, 0))
	js := sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 4, Resident: c.Contains})
	sess, err := NewSession(Config{Store: st, Cache: c, Sched: js, Cost: testCost})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := int64(i + 1)
		if err := sess.Submit(batchedJob(st, id, []time.Duration{0}, uint32(id%4))); err != nil {
			b.Fatal(err)
		}
		<-sess.Results()
	}
	b.StopTimer()
	sess.Close()
}

// BenchmarkSessionBulkQuery is one 512-point Lag6 query, scattered over a
// step whose atoms are all resident, from Submit to its result: the
// per-request data path (partition, cache hits, kernel evaluation, result
// assembly) with no store read in it. The result is released, as the
// serving layer releases it once the response is written.
func BenchmarkSessionBulkQuery(b *testing.B) {
	st := testStore(b)
	c := cache.New(64, cache.NewLRUK(2, 0))
	js := sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 4, Resident: c.Contains})
	sess, err := NewSession(Config{Store: st, Cache: c, Sched: js, Cost: testCost, Compute: true})
	if err != nil {
		b.Fatal(err)
	}
	pts := scatter(rand.New(rand.NewSource(3)), 512)
	submit := func(id int64) {
		q := &query.Query{ID: query.ID(id), JobID: id, Step: 1, Points: pts, Kernel: field.KernelLag6}
		if err := sess.Submit(&job.Job{ID: id, User: 1, Type: job.Batched, Queries: []*query.Query{q}}); err != nil {
			b.Fatal(err)
		}
		(<-sess.Results()).Release()
	}
	submit(1) // reads the step's atoms into the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit(int64(i + 2))
	}
	b.StopTimer()
	sess.Close()
}

// recordingSched wraps a scheduler and keeps the atoms of every non-empty
// decision it returned, in order.
type recordingSched struct {
	sched.Scheduler
	decisions [][]store.AtomID
}

func decisionAtoms(batches []sched.Batch) []store.AtomID {
	ids := make([]store.AtomID, len(batches))
	for i, b := range batches {
		ids[i] = b.Atom
	}
	return ids
}

func (r *recordingSched) NextBatch(now time.Duration) []sched.Batch {
	batches := r.Scheduler.NextBatch(now)
	if len(batches) > 0 {
		r.decisions = append(r.decisions, decisionAtoms(batches))
	}
	return batches
}

// A session drives the same cycle as Run, so Config.OnDecision sees every
// decision of the serving path: the same batches, in the same order, as the
// scheduler returned them.
func TestSessionReportsEveryDecision(t *testing.T) {
	st := testStore(t)
	c := cache.New(16, cache.NewLRUK(1, 0))
	rec := &recordingSched{Scheduler: sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 2, Resident: c.Contains})}
	var reported [][]store.AtomID
	sess, err := NewSession(Config{
		Store: st, Cache: c, Sched: rec, Cost: testCost, JobAware: true,
		OnDecision: func(_ time.Duration, batches []sched.Batch) {
			reported = append(reported, decisionAtoms(batches))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []*job.Job{
		batchedJob(st, 1, []time.Duration{0, 5 * time.Millisecond, 2 * time.Second}, 0),
		batchedJob(st, 2, []time.Duration{0, time.Millisecond}, 1),
		orderedJob(st, 3, []int{0, 1, 2}, []uint32{0, 2, 3}, time.Millisecond, 0),
	}
	if err := sess.Submit(jobs...); err != nil {
		t.Fatal(err)
	}
	for got := 0; got < 8; got++ {
		if r, open := <-sess.Results(); !open || r == nil {
			t.Fatalf("stream closed after %d of 8 results: %v", got, sess.Err())
		}
	}
	sess.Close() // the loop has returned: its slices are safe to read
	if len(rec.decisions) == 0 {
		t.Fatal("the session made no decision")
	}
	if !reflect.DeepEqual(reported, rec.decisions) {
		t.Fatalf("OnDecision saw %d decisions, the scheduler made %d:\n reported %v\n made     %v",
			len(reported), len(rec.decisions), reported, rec.decisions)
	}
}

// A crash scheduled inside an idle gap happens at its own instant: the
// fast-forward to the next arrival stops there, as Run's does, so the
// error, the session clock and the traced event all read the crash time
// and not the arrival's.
func TestSessionCrashInsideIdleGap(t *testing.T) {
	const crashAt = time.Second
	st := testStore(t)
	spec, err := fault.ParseSpec("crash@0:at=1s")
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	tr := obs.NewTracer(&sink)
	sess, err := NewSession(Config{
		Store: st, Cache: cache.New(16, cache.NewLRUK(1, 0)), Sched: sched.NewNoShare(), Cost: testCost,
		Fault: fault.New(spec, 1, 0),
		Obs:   &obs.Obs{Trace: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(batchedJob(st, 1, []time.Duration{10 * crashAt}, 0)); err != nil {
		t.Fatal(err)
	}
	for range sess.Results() {
	} // closes when the node dies
	var nce *fault.NodeCrashError
	if !errors.As(sess.Err(), &nce) || nce.At != crashAt {
		t.Fatalf("session error = %v, want a NodeCrashError at %v", sess.Err(), crashAt)
	}
	if now := sess.eng.clock.Now(); now != crashAt {
		t.Errorf("session clock reads %v after the crash, want %v", now, crashAt)
	}
	var crashes []time.Duration
	for _, ev := range traceEvents(t, tr, &sink) {
		if ev.Kind == obs.KindNodeCrash {
			crashes = append(crashes, ev.T)
		}
	}
	if len(crashes) != 1 || crashes[0] != crashAt {
		t.Errorf("traced crash events at %v, want one at %v", crashes, crashAt)
	}
}
