package main

import (
	"runtime/metrics"
	"sync"
	"time"

	"jaws"
	"jaws/internal/cache"
	"jaws/internal/obs"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/server"
	"jaws/internal/store"
)

// This file holds the traced run's timing decorators: one per seam of the
// system that is an interface or a hook. Each forwards unchanged and adds
// bookkeeping only; the wiring-drift test replays one plan through the
// decorated assembly, the bare assembly and the facade and demands
// identical results. All engine-side decorators run on the engine's single
// goroutine and share one probes value without locks; it is read only after
// the engine stopped.

// probes accumulates what the engine-side decorators see.
type probes struct {
	rec *recorder

	// sched.Scheduler seam.
	enqueues, decisions, emptyDecisions int64
	enqueueTime, decideTime             time.Duration
	decideAllocs                        uint64
	batchAtoms, batchSubs               int64
	// cycleStart is set while an engine cycle is open: from a NextBatch that
	// returned work to the next call of any scheduler method, which is all
	// the engine does for a decision except deciding (execute the batches,
	// stream results, deliver and admit the next arrivals).
	cycleStart time.Time
	// Spans of the engine side share the ID of what they belong to: inside
	// a replay (parent engine.run) the replay's number, under a session
	// (no parent: a decision serves many requests) the decision's number.
	spanParent string
	spanID     int64
	// countAllocs makes NextBatch read the process's allocation counter
	// around each decision; only meaningful when nothing else allocates
	// concurrently (the replays).
	countAllocs bool

	// cache.Policy seam.
	hits, inserts     int64
	hitTime, missTime time.Duration

	// cache.Observer and store.SetIOObserver hooks. A store read is bracketed
	// from outside: it starts at the cache's miss callback and ends at the
	// first policy call of the Put that follows; the disk observer fires
	// between the index walk and the atom's materialisation.
	inRead                 bool
	missAt, ioAt           time.Time
	reads, seqReads        int64
	readTime               time.Duration
	misses                 []store.AtomID // the miss stream, for isolated replay
	hitEvents, evictEvents int64
}

// schedCall runs at the entry of every scheduler method and closes the open
// engine cycle, if any.
func (p *probes) schedCall() {
	if p.cycleStart.IsZero() {
		return
	}
	now := time.Now()
	p.rec.add("engine.cycle", p.spanID, p.spanParent, p.cycleStart, now)
	p.cycleStart = time.Time{}
}

// endRead closes the open store read at now.
func (p *probes) endRead(now time.Time) {
	if !p.inRead {
		return
	}
	p.inRead = false
	p.readTime += now.Sub(p.missAt)
	p.rec.add("store.read", p.spanID, "engine.cycle", p.missAt, now)
	if !p.ioAt.Before(p.missAt) {
		p.rec.add("field.sample", p.spanID, "store.read", p.ioAt, now)
	}
}

// hooks returns the cache and disk observers feeding p.
func (p *probes) hooks() (cache.Observer, func(addr, size int64, seq bool, cost time.Duration)) {
	co := cache.Observer{
		Hit: func(store.AtomID) { p.hitEvents++ },
		Miss: func(id store.AtomID) {
			p.misses = append(p.misses, id)
			p.inRead = true
			p.missAt = time.Now()
		},
		Evict: func(store.AtomID) { p.evictEvents++ },
	}
	io := func(_, _ int64, seq bool, _ time.Duration) {
		p.ioAt = time.Now()
		p.reads++
		if seq {
			p.seqReads++
		}
	}
	return co, io
}

// allocSample is allocObjects' reusable buffer, so that reading the counter
// does not move it. One goroutine at a time counts: the engine's during a
// traced replay, the harness's during the isolated jobgraph replay.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// allocObjects reads the process's cumulative allocation count without
// stopping the world.
func allocObjects() uint64 {
	metrics.Read(allocSample)
	if allocSample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return allocSample[0].Value.Uint64()
}

// timedSched times the scheduler seam. Like oracle.RecordingSched it
// forwards the optional capabilities the engine discovers by type
// assertion, so the inner scheduler keeps its memoised utilities, its gate
// source and its tracer hooks under the wrapper.
type timedSched struct {
	inner sched.Scheduler
	p     *probes
}

func (t *timedSched) Name() string { return t.inner.Name() }

func (t *timedSched) Enqueue(sq *query.SubQuery, now time.Duration) {
	t.p.schedCall()
	t0 := time.Now()
	t.inner.Enqueue(sq, now)
	t.p.enqueueTime += time.Since(t0)
	t.p.enqueues++
}

func (t *timedSched) NextBatch(now time.Duration) []sched.Batch {
	p := t.p
	p.schedCall()
	var a0 uint64
	if p.countAllocs {
		a0 = allocObjects()
	}
	t0 := time.Now()
	bs := t.inner.NextBatch(now)
	t1 := time.Now()
	if p.countAllocs {
		p.decideAllocs += allocObjects() - a0
	}
	p.decideTime += t1.Sub(t0)
	if len(bs) == 0 {
		p.emptyDecisions++
		return bs
	}
	p.decisions++
	p.batchAtoms += int64(len(bs))
	for i := range bs {
		p.batchSubs += int64(len(bs[i].SubQueries))
	}
	if p.spanParent == "" {
		p.spanID = p.decisions
	}
	p.rec.add("sched.decide", p.spanID, p.spanParent, t0, t1)
	p.cycleStart = t1
	return bs
}

func (t *timedSched) Pending() int {
	t.p.schedCall()
	return t.inner.Pending()
}

func (t *timedSched) OnRunEnd(rt, tp float64) { t.inner.OnRunEnd(rt, tp) }
func (t *timedSched) Alpha() float64          { return t.inner.Alpha() }

func (t *timedSched) SetTracer(tr *obs.Tracer) {
	if x, ok := t.inner.(sched.Traced); ok {
		x.SetTracer(tr)
	}
}

func (t *timedSched) SetResidencyVersion(fn func() uint64) {
	if x, ok := t.inner.(sched.ResidencyVersioned); ok {
		x.SetResidencyVersion(fn)
	}
}

func (t *timedSched) SetGateSource(fn func(query.ID) sched.GateState) {
	if x, ok := t.inner.(sched.GateAware); ok {
		x.SetGateSource(fn)
	}
}

func (t *timedSched) SetExplain(on bool) {
	if x, ok := t.inner.(sched.Explained); ok {
		x.SetExplain(on)
	}
}

func (t *timedSched) LastExplain() *sched.Explain {
	if x, ok := t.inner.(sched.Explained); ok {
		return x.LastExplain()
	}
	return nil
}

func (t *timedSched) AtomUtility(id store.AtomID) float64 {
	if x, ok := t.inner.(sched.UtilityProvider); ok {
		return x.AtomUtility(id)
	}
	return 0
}

func (t *timedSched) StepMean(step int) float64 {
	if x, ok := t.inner.(sched.UtilityProvider); ok {
		return x.StepMean(step)
	}
	return 0
}

func (t *timedSched) PendingSteps() []int {
	if x, ok := t.inner.(sched.UtilityProvider); ok {
		return x.PendingSteps()
	}
	return nil
}

var (
	_ sched.Scheduler          = (*timedSched)(nil)
	_ sched.Traced             = (*timedSched)(nil)
	_ sched.ResidencyVersioned = (*timedSched)(nil)
	_ sched.GateAware          = (*timedSched)(nil)
	_ sched.Explained          = (*timedSched)(nil)
	_ sched.UtilityProvider    = (*timedSched)(nil)
)

// timedPolicy times the cache's replacement policy: the hit path (OnHit)
// against the miss path (Victim, OnEvict, OnInsert). It hides the policy's
// concrete type, so it suits the policies the benchmark runs (LRU-K) and
// not URC, which the engine finds by type assertion.
type timedPolicy struct {
	inner cache.Policy
	p     *probes
}

func (t *timedPolicy) Name() string { return t.inner.Name() }
func (t *timedPolicy) EndRun()      { t.inner.EndRun() }

func (t *timedPolicy) OnHit(id store.AtomID) {
	t0 := time.Now()
	t.inner.OnHit(id)
	t.p.hitTime += time.Since(t0)
	t.p.hits++
}

func (t *timedPolicy) OnInsert(id store.AtomID) {
	t0 := time.Now()
	t.p.endRead(t0)
	t.inner.OnInsert(id)
	t.p.missTime += time.Since(t0)
	t.p.inserts++
}

func (t *timedPolicy) Victim() store.AtomID {
	t0 := time.Now()
	t.p.endRead(t0)
	id := t.inner.Victim()
	t.p.missTime += time.Since(t0)
	return id
}

func (t *timedPolicy) OnEvict(id store.AtomID) {
	t0 := time.Now()
	t.inner.OnEvict(id)
	t.p.missTime += time.Since(t0)
}

// timedBackend times the server.Backend seam, two spans per query: the
// Submit call (engine.submit, inside the server's dispatch phase) and from
// its return to the result leaving the session (engine.session, inside the
// server's execute phase). It also records the
// queries themselves, the call stream the isolated replays feed to
// query.PreProcess, geom.Space.Footprint and field.Interpolate.
type timedBackend struct {
	inner server.Backend
	rec   *recorder
	out   chan *jaws.QueryResult

	mu      sync.Mutex
	started map[jaws.QueryID]time.Time
	queries []*jaws.Query
}

func newTimedBackend(inner server.Backend, rec *recorder) *timedBackend {
	b := &timedBackend{
		inner:   inner,
		rec:     rec,
		out:     make(chan *jaws.QueryResult, 1024), // the session's own result buffer size
		started: make(map[jaws.QueryID]time.Time),
	}
	go b.pump()
	return b
}

// pump forwards results until the inner stream closes (the session's Close
// ends it), stamping each query's span on the way.
func (b *timedBackend) pump() {
	defer close(b.out)
	for r := range b.inner.Results() {
		end := time.Now()
		b.mu.Lock()
		accepted, ok := b.started[r.Query.ID]
		delete(b.started, r.Query.ID)
		b.mu.Unlock()
		// A result can overtake its own Submit's return; the query then
		// spent no measurable time in the session beyond the call.
		if !ok || accepted.IsZero() {
			accepted = end
		}
		b.rec.add("engine.session", int64(r.Query.ID), "server.execute", accepted, end)
		b.out <- r
	}
}

func (b *timedBackend) Submit(jobs ...*jaws.Job) error {
	b.mu.Lock()
	for _, j := range jobs {
		for _, q := range j.Queries {
			b.queries = append(b.queries, q)
			b.started[q.ID] = time.Time{}
		}
	}
	b.mu.Unlock()
	t0 := time.Now()
	err := b.inner.Submit(jobs...)
	t1 := time.Now()
	b.mu.Lock()
	for _, j := range jobs {
		for _, q := range j.Queries {
			b.rec.add("engine.submit", int64(q.ID), "server.dispatch", t0, t1)
			if _, waiting := b.started[q.ID]; waiting && err == nil {
				b.started[q.ID] = t1
			} else {
				delete(b.started, q.ID)
			}
		}
	}
	b.mu.Unlock()
	return err
}

func (b *timedBackend) Results() <-chan *jaws.QueryResult { return b.out }
func (b *timedBackend) Close() *jaws.Report               { return b.inner.Close() }
func (b *timedBackend) Err() error                        { return b.inner.Err() }

// reset forgets the recorded queries (the warm-up's).
func (b *timedBackend) reset() {
	b.mu.Lock()
	b.queries = nil
	b.mu.Unlock()
}

func (b *timedBackend) recorded() []*jaws.Query {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]*jaws.Query(nil), b.queries...)
}
