// Package engine executes workloads against the simulated Turbulence
// node: it owns the virtual clock, drives arrivals from the future-event
// list, feeds pre-processed sub-queries to the configured scheduler,
// charges I/O to the disk model through the cache, performs the actual
// interpolation kernels (optionally in parallel), and collects the
// throughput/response-time measurements the experiments report.
//
// The engine realizes the JAWS architecture of Fig. 7: Query Pre-Processor
// → Workload Manager (the scheduler's atom queues) → batched execution
// against the database, with results combined and returned per query.
package engine

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"jaws/internal/arena"
	"jaws/internal/cache"
	"jaws/internal/disk"
	"jaws/internal/fault"
	"jaws/internal/field"
	"jaws/internal/geom"
	"jaws/internal/job"
	"jaws/internal/jobgraph"
	"jaws/internal/obs"
	"jaws/internal/prefetch"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/store"
	"jaws/internal/vclock"
)

const (
	// stallLimit aborts a run that makes no progress for this many
	// consecutive iterations (a gated-execution deadlock would otherwise
	// hang).
	stallLimit = 1 << 20
	// decisionOverhead is the fixed cost of submitting one scheduling
	// decision to the database (query setup, plan compilation, round
	// trip). Batching k atoms amortizes it — one of the two mechanisms
	// (with sequential Morton-order I/O) that make the two-level batch
	// profitable.
	decisionOverhead = 50 * time.Millisecond
	// maxRetries bounds how many times a read failing with a transient
	// error is retried before the run aborts; retryBackoff is the base of
	// the exponential backoff charged to the virtual clock between
	// attempts, doubling per retry up to retryBackoffMax.
	maxRetries      = 4
	retryBackoff    = 10 * time.Millisecond
	retryBackoffMax = 500 * time.Millisecond
)

// Config assembles an engine.
type Config struct {
	Store *store.Store
	Cache *cache.Cache
	Sched sched.Scheduler
	// Cost is the T_b/T_m model shared with the scheduler. The engine
	// charges T_m per position; zero means sched.DefaultCost's.
	Cost sched.CostModel
	// JobAware enables gated execution (§IV): ordered jobs are registered
	// in the precedence graph and queries are admitted to the workload
	// queues only in the QUEUE state, so data-sharing queries from
	// different jobs enter together.
	JobAware bool
	// RunLength is r, the number of consecutive queries per adaptation
	// run (§V.A). Defaults to 32.
	RunLength int
	// Compute evaluates the interpolation kernels for real; otherwise
	// only virtual time is charged (benchmarks of scheduling behaviour).
	Compute bool
	// Parallelism is ignored: the simulation goroutine evaluates every
	// batch. It stays only because benchmark/ sets it; ROADMAP 1a(i)
	// deletes it.
	Parallelism int
	// KeepResults retains per-position kernel outputs in the report
	// (memory-heavy; examples use it, experiments do not).
	KeepResults bool
	// FlushPerDecision empties the cache after every scheduling decision.
	// The NoShare baseline sets this: each query is evaluated
	// independently with no I/O shared across queries (§VI), matching the
	// paper's buffer-flushing methodology. Within one decision (one
	// query), atoms are still read only once.
	FlushPerDecision bool
	// DeclareUpfront registers every ordered job in the precedence graph
	// before execution begins, modelling the §VII direction of
	// encapsulating jobs inside the database: the scheduler gains a priori
	// knowledge of all queries in every job, so the greedy gating merge
	// sees the whole workload at once instead of aligning jobs
	// incrementally as they arrive. Only meaningful with JobAware.
	DeclareUpfront bool
	// Prefetch enables the §VII trajectory extrapolation: when an ordered
	// job's query completes, the predicted atoms of its next query are
	// fetched into the cache during the job's think-time window (the disk
	// is otherwise idle for that job while the scientist computes the next
	// positions), masking the page faults of the successor. Prefetch I/O
	// is bounded by the think time and charged to the disk statistics but
	// not to the virtual clock.
	Prefetch bool
	// Obs enables decision tracing and metrics. Nil (the default) runs the
	// engine uninstrumented: every instrumentation point reduces to one nil
	// check (see the obs package's zero-overhead contract).
	Obs *obs.Obs
	// EngineID labels this engine's decision flight records so a shared
	// trace can be split back into per-node timelines: system.EngineConfig
	// sets it to the node description's Node, which a jawsd replica and a
	// cluster node set to their index. Ignored unless Obs carries a
	// recorder.
	EngineID int
	// Fault enables deterministic fault injection: transient/permanent
	// disk errors, latency spikes, cache corruption, and a scheduled node
	// crash (see internal/fault). Nil (the default) disables injection for
	// the cost of one nil check per hook, mirroring Obs.
	Fault *fault.Injector
	// OnDecision, when non-nil, receives every scheduling decision the
	// engine executes: the virtual time of the NextBatch call and the
	// batches it returned, before any time is charged. The differential
	// oracle (internal/oracle) exports the engine-level decision trace
	// through this hook. The callback must not retain or mutate the slice.
	OnDecision func(now time.Duration, batches []sched.Batch)
}

// QueryResult is a completed query with its measured response time and
// (optionally) its computed values in request order: Positions[i] answers
// Query.Points[i], whatever order the sub-queries executed in. For
// temporal-derivative queries (DerivSteps ≥ 2) the values are ∂/∂t
// estimates at the anchor step: the per-step kernel outputs of the chain
// are combined with the forward finite-difference stencil
// (query.DerivWeights) over query.StepDT.
type QueryResult struct {
	Query     *query.Query
	Completed time.Duration
	Positions []PointSample

	// home is the free list of the session the result came from; nil once
	// released, and for a result nothing recycles (Engine.Run's belong to
	// the report).
	home *resultList
}

// Release hands r and its sample buffer back to the session that produced
// it, to carry a later query's result: whoever holds r calls it, once, and
// does not use r or r.Positions afterwards. It is optional — a result never
// released is left to the collector — and does nothing on a result already
// released, on one a session did not produce, and once the session has
// closed.
func (r *QueryResult) Release() {
	l := r.home
	if l == nil {
		return
	}
	r.home, r.Query, r.Positions = nil, nil, r.Positions[:0]
	l.mu.Lock()
	if !l.closed {
		l.free = append(l.free, r)
	}
	l.mu.Unlock()
}

// resultList is a session's free list of results. Consumers release from
// their own goroutines and dispatch takes on the simulation goroutine,
// hence the lock. It never holds more results than were out at once.
type resultList struct {
	mu     sync.Mutex
	free   []*QueryResult
	closed bool
}

// take returns a result for q: a released one with its buffer, else a new
// one. On a nil list (Engine.Run) every result is new and nobody's to
// release.
func (l *resultList) take(q *query.Query) *QueryResult {
	if l == nil {
		return &QueryResult{Query: q}
	}
	l.mu.Lock()
	r, ok := pop(&l.free)
	l.mu.Unlock()
	if !ok {
		r = new(QueryResult)
	}
	r.home, r.Query, r.Completed = l, q, 0
	return r
}

// close drops the free results and makes every later Release a no-op.
func (l *resultList) close() {
	l.mu.Lock()
	l.free, l.closed = nil, true
	l.mu.Unlock()
}

// PointSample is one evaluated position: the kernel output (or, for
// derivative queries, the finite-differenced ∂/∂t estimate) at Pos.
type PointSample struct {
	Pos geom3
	Val [field.Components]float64
}

// geom3 mirrors geom.Position without importing it into the public result
// shape twice; kept simple for encoding.
type geom3 struct{ X, Y, Z float64 }

// RunStats is one adaptation run's measured performance.
type RunStats struct {
	EndedAt     time.Duration
	MeanRespSec float64
	Throughput  float64
	Alpha       float64
}

// Report summarizes one engine run. A session's report (Session.Close)
// leaves P50Response, P95Response and Runs empty: a session keeps no history
// that grows with it (jaws_response_seconds and jaws_runs_total have them).
type Report struct {
	Scheduler     string
	Completed     int
	Elapsed       time.Duration
	ThroughputQPS float64
	MeanResponse  time.Duration
	P50Response   time.Duration
	P95Response   time.Duration
	CacheStats    cache.Stats
	DiskStats     disk.Stats
	Runs          []RunStats
	FinalAlpha    float64
	// GatingAdmitted/Rejected report job-graph activity (job-aware runs).
	GatingAdmitted int
	GatingRejected int
	// PrefetchedAtoms counts atoms loaded by trajectory prefetching.
	PrefetchedAtoms int64
	// Retries counts atom reads re-attempted after transient disk errors.
	Retries int64
	// Faults tallies the injected faults of the run (zero without a
	// configured injector).
	Faults fault.Counts
	// Results is populated only with Config.KeepResults.
	Results []*QueryResult
}

// queryState is the frame of one dispatched query (DESIGN.md §7): its
// partition, its progress and its gate state, in storage the engine
// recycles from query to query. It holds no sample memory: kernel outputs
// go straight into the result's buffer.
type queryState struct {
	query.Partition
	q         *query.Query
	remaining int
	// result is nil without KeepResults. While a query executes,
	// result.Positions is its chain, one array for the whole query (a plain
	// query is a chain of one step): the sample of chain step j at request
	// index i (query.SubQuery.Index) is Positions[j*len(q.Points)+i]. A
	// request index names the same position at every step — the invariant
	// the finite-differencing relies on.
	result *QueryResult
	// filled counts the samples written into the chain.
	filled int
	// gate is what the gate-aware tail policy reads for this query. It
	// cannot change while the query is enqueued, so dispatch computes it.
	gate sched.GateState
}

// samples returns the segment of the result's buffer that sq's step owns,
// one slot per point of the query in request order: the output at
// Query.Points[i], for each i of sq.Index, goes to slot i. The buffer
// grows when the query's first sub-query executes if it is too small (a
// new result's is empty).
func (st *queryState) samples(sq *query.SubQuery) []PointSample {
	n, r := len(st.q.Points), st.result
	if st.filled == 0 {
		if k := st.q.ChainLen(); cap(r.Positions) < k*n {
			r.Positions = make([]PointSample, k*n)
		} else {
			r.Positions = r.Positions[:k*n]
		}
	}
	lo := (sq.Atom.Step - st.q.Step) * n
	st.filled += len(sq.Index)
	return r.Positions[lo : lo+n]
}

// difference collapses a derivative query's evaluated chain into ∂/∂t
// estimates, in place and in request order: for every position the
// derivative is Σⱼ wⱼ·v(step+j) / StepDT with the Fornberg forward
// stencil. Position p reads index p of every step and writes index p of
// the first, so no value is read after it was overwritten. w is
// query.DerivWeights of the chain's length.
func (st *queryState) difference(w []float64) {
	k, n, r := st.q.ChainLen(), len(st.q.Points), st.result
	chain := r.Positions
	for p := 0; p < n; p++ {
		var val [field.Components]float64
		for j := 0; j < k; j++ {
			for comp := range val {
				val[comp] += float64(w[j] * chain[j*n+p].Val[comp])
			}
		}
		for comp := range val {
			val[comp] /= query.StepDT
		}
		chain[p].Val = val
	}
	r.Positions = chain[:n]
}

// derivWeights returns query.DerivWeights(k), computed the first time the
// engine completes a k-step chain and kept for the next.
func (e *Engine) derivWeights(k int) []float64 {
	for len(e.derivW) <= k {
		e.derivW = append(e.derivW, nil)
	}
	if e.derivW[k] == nil {
		e.derivW[k] = query.DerivWeights(k)
	}
	return e.derivW[k]
}

// liveJob is a submitted job and how many of its queries are still to
// complete.
type liveJob struct {
	*job.Job
	left int
}

// Engine executes one workload; create a fresh engine per run.
type Engine struct {
	cfg    Config
	clock  vclock.Clock
	events vclock.EventList

	graph *jobgraph.Graph

	arrived []*query.Query
	states  map[query.ID]*queryState
	// jobsByID holds the jobs with a query still to complete; an entry goes
	// when its last query does, so a long-lived session stays bounded.
	// total counts the queries of every job taken in (intake).
	jobsByID map[int64]liveJob
	total    int

	predictor  *prefetch.Predictor
	prefetched int64

	inst *instruments

	// Query frames (DESIGN.md §7). dispatch takes a query's state from
	// freeStates — kept in ascending order of the frames' point capacity, so
	// that it finds the smallest that fits — or carves a new one from
	// frames, whose partition carves its first arrays from partRuns; complete
	// retires it, and the end of the decision in hand frees what was
	// retired — not sooner: the decision's batches still list the completed
	// query's sub-queries, for whoever reads them until then. Arenas and
	// lists are the simulation goroutine's and die with the engine; together
	// they hold as many frames as queries were in flight at once. results is
	// a session's free list of results; nil under Run.
	frames        arena.Arena[queryState]
	partRuns      query.Runs
	freeStates    []*queryState
	retiredStates []*queryState
	results       *resultList

	// jobAtomIDs and jobAtomLists are register's scratch: a job's per-query
	// atom lists end to end, and the list headers over them (the graph
	// copies what it is given).
	jobAtomIDs   []store.AtomID
	jobAtomLists [][]store.AtomID

	// Scratch of one decision, reused by the next: the primary atoms of
	// the decision's batches (index-parallel to them) and the footprint
	// atoms the batch in hand has read. Each is cleared after use, so
	// neither keeps an atom alive.
	atomBuf []*field.Atom
	seenBuf []store.AtomID

	// The frame lifecycle (DESIGN.md §7). An atom arrives from the store
	// unfilled and is filled, into rows of the engine's arena, when it is
	// first a batch's primary; when the cache evicts it, it is retired; when
	// the decision in hand ends, the retired atoms' rows become free for
	// later fills and their handles for later reads. Not sooner: execute
	// fetches every primary before it evaluates any, so an atom in atomBuf
	// may be evicted, retired, and still filled and read by its batch; once
	// atomBuf is cleared nothing of the engine's holds it. The arena and the
	// lists belong to the simulation goroutine. The arena carves a half row
	// only when none is free, so it holds the most half rows cached and
	// retired atoms held at once: at most the cache's capacity × an atom's
	// half block rows, plus one decision's evictions'. freeAtoms holds at
	// most the capacity.
	rows      *field.RowArena
	retired   []*field.Atom
	freeAtoms []*field.Atom
	gathered  []geom.Position // computeBatch's scratch: a sub-query's positions
	// fills counts the syntheses this engine performed (at most one per
	// store read; none with Compute off).
	fills int64

	// stepMeans is pushUtilities' scratch (URC copies what it is given).
	stepMeans map[int]float64
	// derivW[k] is the derivative weights of a k-step chain, nil until the
	// engine completes one.
	derivW [][]float64

	// rtSum is Σ response time, the report's mean. Under Run only,
	// completedRT keeps each one for the quantiles and report.Runs each of
	// the runs ended: a session would keep them as long as it lives.
	rtSum       time.Duration
	completedRT []time.Duration
	runs        int
	runCount    int
	runStart    time.Duration
	runRTSum    float64 // Σ response time (s) over the current run

	report Report
}

// New validates the configuration and builds an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Store == nil || cfg.Cache == nil || cfg.Sched == nil {
		return nil, errors.New("engine: store, cache and scheduler are all required")
	}
	if cfg.RunLength <= 0 {
		cfg.RunLength = 32
	}
	if cfg.Cost.Tm <= 0 {
		cfg.Cost.Tm = sched.DefaultCost().Tm
	}
	e := &Engine{
		cfg:       cfg,
		states:    make(map[query.ID]*queryState),
		jobsByID:  make(map[int64]liveJob),
		stepMeans: make(map[int]float64),
		rows:      new(field.RowArena),
	}
	if cfg.Prefetch {
		e.predictor = prefetch.New(cfg.Store.Space())
	}
	if cfg.JobAware {
		// Jobs register their per-query atom footprints directly, so the
		// graph's inverted atom index derives the sharing relation; no
		// pairwise set-intersection callback is needed.
		e.graph = jobgraph.New(nil)
	}
	// Let the scheduler memoize φ(i)-dependent utilities: the cache's
	// mutation counter proves residency unchanged between decisions.
	if rv, ok := cfg.Sched.(sched.ResidencyVersioned); ok {
		rv.SetResidencyVersion(cfg.Cache.Version)
	}
	// Gate-aware tail policies consume per-query gate states: install this
	// engine's job-graph view. Each engine gets a scheduler of its own.
	if ga, ok := cfg.Sched.(sched.GateAware); ok && cfg.JobAware {
		ga.SetGateSource(e.gateState)
	}
	// Install (or, uninstrumented, clear) the observability hooks. The
	// store and cache outlive an engine, so this must run unconditionally
	// to drop hooks a previous instrumented run left on them.
	e.inst = newInstruments(cfg.Obs)
	e.inst.install(e)
	return e, nil
}

// advance charges d to the virtual clock and attributes it to the
// in-flight spans under the given cause. Uninstrumented runs pay one nil
// check on top of the clock bump.
func (e *Engine) advance(d time.Duration, c spanCause) {
	e.clock.Advance(d)
	e.inst.noteAdvance(c, d)
}

// advanceTo fast-forwards the clock to at (never backwards), attributing
// the jump as queueing wait.
func (e *Engine) advanceTo(at time.Duration) {
	d := at - e.clock.Now()
	if d <= 0 {
		return
	}
	e.clock.AdvanceTo(at)
	e.inst.noteAdvance(causeWait, d)
}

// Run executes the jobs to completion and returns the report. Batched
// jobs' queries carry absolute arrival times; ordered jobs' queries beyond
// the first arrive ThinkTime after their predecessor completes.
func (e *Engine) Run(jobs []*job.Job) (*Report, error) {
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return nil, err
		}
	}
	if err := e.intake(jobs, 0); err != nil {
		return nil, err
	}
	if e.cfg.JobAware && e.cfg.DeclareUpfront {
		e.declareAll(jobs)
	}

	stall := 0
	for e.report.Completed < e.total {
		worked, err := e.step()
		if err != nil {
			return nil, err
		}
		if worked {
			stall = 0
			continue
		}
		if err := e.stalled(&stall); err != nil {
			return nil, err
		}
	}

	e.finishReport()
	// A copy: a pointer into the engine would keep the job graph, the
	// scheduler's queues and the frame lists alive as long as the report.
	rep := e.report
	return &rep, nil
}

// stalled is the one stall rule of Run and Session.loop, called for each
// cycle that moved nothing while queries are outstanding: it counts the
// cycle in *stall and, past stallLimit such cycles in a row, records the
// abort (counter and trace event) and returns the error that ends the
// drive.
func (e *Engine) stalled(stall *int) error {
	if *stall++; *stall <= stallLimit {
		return nil
	}
	e.inst.noteStallAbort(e.clock.Now())
	return fmt.Errorf("engine: stalled with %d/%d queries complete (gated-execution deadlock?)",
		e.report.Completed, e.total)
}

// intake enters validated jobs in the live-job table and their first
// arrivals on the event list, arrival times shifted by offset (a session's
// "now"; zero under Run), and adds their queries to the total to complete.
// A job whose ID a live job already has is an error.
func (e *Engine) intake(jobs []*job.Job, offset time.Duration) error {
	for _, j := range jobs {
		if _, dup := e.jobsByID[j.ID]; dup {
			return fmt.Errorf("engine: job %d already submitted", j.ID)
		}
		e.jobsByID[j.ID] = liveJob{j, len(j.Queries)}
		e.total += len(j.Queries)
		switch j.Type {
		case job.Batched:
			for _, q := range j.Queries {
				q.Arrival += offset
				e.events.Push(q.Arrival, q)
			}
		case job.Ordered:
			j.Queries[0].Arrival += offset
			e.events.Push(j.Queries[0].Arrival, j.Queries[0])
		default:
			return fmt.Errorf("engine: job %d has unknown type %v", j.ID, j.Type)
		}
	}
	return nil
}

// step is the engine's one cycle; Run and Session.loop drive it until their
// work is done. It honours a scheduled node crash, delivers the arrivals
// that are due, admits what gating allows, then executes the scheduler's
// next decision — or, with nothing pending, fast-forwards to the next
// event. worked is false when nothing moved: a stall, or a session's
// idleness.
func (e *Engine) step() (worked bool, err error) {
	// The node dies the first time virtual time passes the injector's
	// instant. What is in flight is lost; the cluster recovers by failover.
	crashAt, willCrash := e.cfg.Fault.CrashAt()
	if willCrash && e.clock.Now() >= crashAt {
		e.inst.noteCrash(e.clock.Now(), e.cfg.Fault.Node())
		return false, &fault.NodeCrashError{Node: e.cfg.Fault.Node(), At: crashAt}
	}

	worked = e.deliverDue()
	if e.admitArrived() {
		worked = true
	}

	if e.cfg.Sched.Pending() > 0 {
		decidedAt := e.clock.Now()
		batches := e.cfg.Sched.NextBatch(decidedAt)
		if len(batches) == 0 {
			return worked, nil
		}
		if e.cfg.OnDecision != nil {
			e.cfg.OnDecision(decidedAt, batches)
		}
		return true, e.execute(batches)
	}
	if ev, ok := e.events.Peek(); ok {
		// Never fast-forward past the crash instant, or a long idle gap
		// would let the node outlive its own death.
		at := ev.At
		if willCrash && crashAt < at {
			at = crashAt
		}
		e.advanceTo(at)
		worked = true
	}
	return worked, nil
}

// declareAll registers every ordered job in the precedence graph before
// the first arrival, in arrival order of their first queries so the
// greedy merge remains deterministic.
func (e *Engine) declareAll(jobs []*job.Job) {
	ordered := make([]*job.Job, 0, len(jobs))
	for _, j := range jobs {
		if j.Type == job.Ordered {
			ordered = append(ordered, j)
		}
	}
	slices.SortStableFunc(ordered, func(a, b *job.Job) int {
		return cmp.Compare(a.Queries[0].Arrival, b.Queries[0].Arrival)
	})
	for _, j := range ordered {
		if !e.graph.Registered(j.ID) {
			e.register(j)
		}
	}
}

// register enters an ordered job in the precedence graph with its
// per-query atom lists, each in clustered-key order, for the graph's
// inverted index. It cannot fail: the job was validated and is not yet
// registered.
func (e *Engine) register(j *job.Job) {
	space := e.cfg.Store.Space()
	ids, lists := e.jobAtomIDs[:0], e.jobAtomLists[:0]
	for _, jq := range j.Queries {
		n := len(ids)
		ids = query.AppendAtoms(ids, jq, space)
		lists = append(lists, ids[n:])
	}
	// ids may have moved while it grew: point every list at its final place.
	lo := 0
	for s := range lists {
		hi := lo + len(lists[s])
		lists[s] = ids[lo:hi]
		lo = hi
	}
	e.jobAtomIDs, e.jobAtomLists = ids, lists
	if err := e.graph.AddJobWithAtoms(j.ID, lists); err != nil {
		panic(fmt.Sprintf("engine: graph registration: %v", err))
	}
}

// deliverDue hands every arrival that is due to onArrival, and reports
// whether there was one.
func (e *Engine) deliverDue() bool {
	delivered := false
	for ev, ok := e.events.Peek(); ok && ev.At <= e.clock.Now(); ev, ok = e.events.Peek() {
		ev, _ = e.events.Pop()
		e.onArrival(ev.Payload.(*query.Query))
		delivered = true
	}
	return delivered
}

// onArrival records a query's arrival: job-aware runs register ordered
// jobs in the precedence graph on first contact.
func (e *Engine) onArrival(q *query.Query) {
	if j := e.jobsByID[q.JobID].Job; e.cfg.JobAware && j != nil && j.Type == job.Ordered {
		if !e.graph.Registered(j.ID) {
			e.register(j)
		}
		e.graph.MarkArrived(jobgraph.Ref{Job: q.JobID, Seq: q.Seq})
	}
	e.arrived = append(e.arrived, q)
}

// admitArrived moves arrived queries whose constraints are satisfied into
// the scheduler's workload queues. Reports whether anything was admitted.
func (e *Engine) admitArrived() bool {
	if len(e.arrived) == 0 {
		return false
	}
	kept := e.arrived[:0]
	admitted := false
	for _, q := range e.arrived {
		if !e.canDispatch(q) {
			e.inst.noteBlocked(q, e.clock.Now())
			kept = append(kept, q)
			continue
		}
		e.dispatch(q)
		admitted = true
	}
	clear(e.arrived[len(kept):]) // or the array pins the dispatched queries
	e.arrived = kept
	return admitted
}

// canDispatch applies gating: job-aware runs admit ordered-job queries
// only in the QUEUE state. A blocked query's re-check, every cycle until it
// clears, allocates nothing.
func (e *Engine) canDispatch(q *query.Query) bool {
	if !e.cfg.JobAware {
		return true
	}
	j := e.jobsByID[q.JobID].Job
	if j == nil || j.Type != job.Ordered {
		return true
	}
	// Atomic group admission: hold a gated query until every live
	// co-scheduled partner has also arrived (think time elapsed), so the
	// whole group's sub-queries land in the workload queues in the same
	// admission pass and their shared atoms are read in one batch.
	return e.graph.Dispatchable(jobgraph.Ref{Job: q.JobID, Seq: q.Seq})
}

// gateState is the gate-aware tail policy's per-query state source: the
// job-graph condition of one enqueued query, as dispatch found it. The
// scheduler calls it once per sub-query, at Enqueue (one map lookup), and
// relies on the answer holding while the query has a sub-query pending
// (sched.GateAware): nothing writes queryState.gate but dispatch.
func (e *Engine) gateState(qid query.ID) sched.GateState {
	if st := e.states[qid]; st != nil {
		return st.gate
	}
	return sched.GateFree
}

// gateAtDispatch is the gate state of q for as long as it is enqueued. A
// query whose ordered job holds a successor reads GateReleasing: the
// successor is WAIT until q completes, and completing q shortens its
// gated-behind wait, so q's atoms deserve promotion. Everything else —
// batched jobs, lone queries, chain tails — reads GateFree. GateBlocked
// (jobgraph.BlockedBy non-empty) cannot occur: only a QUEUE vertex is
// dispatched and nothing holds one back. The policy and its oracle model
// still handle it; random op logs exercise it heavily.
func (e *Engine) gateAtDispatch(q *query.Query) sched.GateState {
	if !e.cfg.JobAware {
		return sched.GateFree
	}
	if j := e.jobsByID[q.JobID].Job; j != nil && j.Type == job.Ordered && q.Seq+1 < len(j.Queries) {
		return sched.GateReleasing
	}
	return sched.GateFree
}

// byPointCap orders the free frames: where a frame of capacity n belongs.
func byPointCap(st *queryState, n int) int { return cmp.Compare(st.PointCap(), n) }

// takeState returns a frame for a query of n points: the smallest free one
// whose point array holds them — so that a small query does not use up the
// frame a large one sized, and the large one regrow a small frame. When
// none does, the smallest of all regrows (it discards the least); with no
// free frame, a new one is carved.
func (e *Engine) takeState(n int) *queryState {
	if len(e.freeStates) == 0 {
		st := &e.frames.Alloc(1, 1)[0]
		st.Partition = query.NewPartition(&e.partRuns)
		return st
	}
	i, _ := slices.BinarySearchFunc(e.freeStates, n, byPointCap)
	if i == len(e.freeStates) {
		i = 0
	}
	st := e.freeStates[i]
	e.freeStates = slices.Delete(e.freeStates, i, i+1)
	return st
}

// dispatch pre-processes the query into a frame and enqueues its
// sub-queries. On a warmed engine, a query that a free frame fits — one no
// larger than a query that frame served — allocates nothing here.
func (e *Engine) dispatch(q *query.Query) {
	st := e.takeState(len(q.Points))
	sqs, err := st.Split(q, e.cfg.Store.Space())
	if err != nil {
		panic(fmt.Sprintf("engine: pre-process of validated query failed: %v", err))
	}
	st.q, st.remaining, st.filled, st.gate = q, len(sqs), 0, e.gateAtDispatch(q)
	if e.cfg.KeepResults {
		st.result = e.results.take(q)
	}
	e.states[q.ID] = st
	now := e.clock.Now()
	e.inst.noteDispatched(q, now)
	for i := range sqs {
		e.cfg.Sched.Enqueue(&sqs[i], now)
	}
}

// releaseStates frees the frames of the queries the decision completed,
// emptied of every reference to them, each to its place in the order.
func (e *Engine) releaseStates() {
	for i, st := range e.retiredStates {
		st.Reset()
		st.q, st.result = nil, nil
		at, _ := slices.BinarySearchFunc(e.freeStates, st.PointCap(), byPointCap)
		e.freeStates = slices.Insert(e.freeStates, at, st)
		e.retiredStates[i] = nil
	}
	e.retiredStates = e.retiredStates[:0]
}

// execute runs one scheduler decision: a group of atom batches evaluated
// in the order given (Morton order for JAWS). The decision overhead is
// charged once for the whole group, and all primary atoms are fetched
// up front in that order so Morton-adjacent atoms produce sequential disk
// runs — the two effects the paper's two-level batching banks on.
func (e *Engine) execute(batches []sched.Batch) error {
	e.inst.noteDecision(len(batches))
	e.inst.noteFlight(e)
	e.inst.noteBeginDecision(batches)
	defer e.releaseStates() // deferred first, so it runs after the clean-up below and the hook
	defer e.inst.noteEndDecision()
	e.advance(decisionOverhead, causeOverhead)
	defer func() {
		clear(e.atomBuf)
		e.atomBuf = e.atomBuf[:0]
		e.freeRetired()
		e.inst.noteSampleBytes(e.rows)
	}()
	for i := range batches {
		a, err := e.readAtom(batches[i].Atom)
		if err != nil {
			return err
		}
		e.atomBuf = append(e.atomBuf, a)
	}
	for i := range batches {
		if err := e.executeBatch(&batches[i], e.atomBuf[i]); err != nil {
			return err
		}
	}
	if e.cfg.FlushPerDecision {
		e.retired = e.cfg.Cache.Flush(e.retired)
	}
	e.pushUtilities()
	return nil
}

// executeBatch evaluates one atom's sub-queries given its pre-fetched
// data: reads stencil-footprint atoms through the cache, charges compute
// time per position, evaluates kernels if configured, and completes
// queries whose last sub-query finished.
func (e *Engine) executeBatch(b *sched.Batch, atom *field.Atom) error {
	// Footprint atoms: interpolation stencils near atom faces also touch
	// neighbouring atoms (§III.B "potentially nearby atoms"). Read each
	// distinct one once for the whole batch.
	seen := append(e.seenBuf[:0], b.Atom)
	for _, sq := range b.SubQueries {
		for _, f := range sq.Footprint {
			if !slices.Contains(seen, f) {
				seen = append(seen, f)
				if _, err := e.readAtom(f); err != nil {
					return err
				}
			}
		}
	}
	e.seenBuf = seen

	// Charge computation: T_m per position, scaled by kernel cost.
	var compute time.Duration
	for _, sq := range b.SubQueries {
		w := sq.Query.Kernel.CostWeight()
		compute += time.Duration(float64(e.cfg.Cost.Tm) * w * float64(len(sq.Index)))
	}
	e.advance(compute, causeCompute)

	if e.cfg.Compute && atom != nil {
		e.computeBatch(b, atom)
	}

	// Completion bookkeeping.
	now := e.clock.Now()
	for _, sq := range b.SubQueries {
		st := e.states[sq.Query.ID]
		st.remaining--
		if st.remaining == 0 {
			e.complete(st, now)
		}
	}
	return nil
}

// readAtom fetches an atom through the cache, charging disk time on miss.
// Reads failing with a transient (injected) error are retried up to
// maxRetries times under capped exponential backoff, every attempt and
// backoff charged to the virtual clock; permanent failures and exhausted
// retries propagate as errors that abort the run.
func (e *Engine) readAtom(id store.AtomID) (*field.Atom, error) {
	// A resident payload that fails its checksum is dropped, so the Get
	// below misses and the atom is re-read.
	if e.cfg.Fault != nil && e.cfg.Cache.Contains(id) && e.cfg.Fault.CorruptHit(e.clock.Now()) {
		e.retire(e.cfg.Cache.Corrupt(id))
		e.inst.noteCorrupt()
	}
	if a, ok := e.cfg.Cache.Get(id); ok {
		return a, nil
	}
	backoff := retryBackoff
	for attempt := 0; ; attempt++ {
		a, cost, err := e.readFrame(id)
		e.advance(cost, causeDisk) // on error, cost is the failure-detection latency
		if err == nil {
			e.putAtom(id, a)
			return a, nil
		}
		if !fault.IsTransient(err) || attempt >= maxRetries {
			e.inst.noteFaultAbort(e.clock.Now(), id, attempt)
			return nil, fmt.Errorf("engine: read failed after %d attempt(s): %w", attempt+1, err)
		}
		e.report.Retries++
		e.inst.noteRetry(e.clock.Now(), id, attempt, backoff)
		e.advance(backoff, causeDisk)
		backoff *= 2
		if backoff > retryBackoffMax {
			backoff = retryBackoffMax
		}
	}
}

// readFrame reads id from the store, into a free handle when there is one;
// a read that fails leaves the handle free. It is the one path demand
// reads, retries and prefetches take to the store, and so the one place
// the fault injector fails a read (charging its detection latency and
// reading nothing) or stretches one.
func (e *Engine) readFrame(id store.AtomID) (*field.Atom, time.Duration, error) {
	var extra time.Duration
	// An atom the store does not hold fails in ReadInto, with no draw.
	if e.cfg.Fault != nil && e.cfg.Store.Contains(id) {
		var err error
		if extra, err = e.cfg.Fault.DiskRead(e.clock.Now()); err != nil {
			return nil, extra, fmt.Errorf("store: atom %v: %w", id, err)
		}
	}
	frame, _ := pop(&e.freeAtoms)
	a, cost, err := e.cfg.Store.ReadInto(id, frame)
	if err != nil && frame != nil {
		e.freeAtoms = append(e.freeAtoms, frame)
	}
	return a, cost + extra, err
}

// putAtom makes a resident and retires the atom this displaced, if any.
func (e *Engine) putAtom(id store.AtomID, a *field.Atom) {
	e.retire(e.cfg.Cache.Put(id, a))
}

// retire takes over an atom the cache dropped — displaced by a Put or
// found corrupt; a is nil when it dropped none.
func (e *Engine) retire(a *field.Atom) {
	if a != nil {
		e.retired = append(e.retired, a)
	}
}

// freeRetired frees the retired atoms' rows and then their handles: no
// batch of the decision that evicted them can read them any more, and
// atomBuf, the last place that could list them, is empty.
func (e *Engine) freeRetired() {
	limit := e.cfg.Cache.Capacity()
	for i, a := range e.retired {
		a.Release()
		if len(e.freeAtoms) < limit {
			e.freeAtoms = append(e.freeAtoms, a)
		}
		e.retired[i] = nil
	}
	e.retired = e.retired[:0]
}

// pop takes the last element off a free list, leaving no reference to it
// behind; ok is false, and v zero, when the list is empty.
func pop[T any](list *[]T) (v T, ok bool) {
	n := len(*list)
	if n == 0 {
		return v, false
	}
	var zero T
	v, (*list)[n-1] = (*list)[n-1], zero
	*list = (*list)[:n-1]
	return v, true
}

// fill synthesizes the blocks of a that want names, into rows of the
// engine's arena when a holds none yet.
func (e *Engine) fill(a *field.Atom, want field.Blocks) {
	if want == (field.Blocks{}) {
		return
	}
	a.FillBlocks(want, e.rows)
	e.fills++
}

// computeBatch evaluates the kernels for every position of the batch,
// each point's value going to its request index in its query's result
// array (or nowhere, without KeepResults: the evaluation is then the run's
// CPU load alone). The blocks the batch's stencils read are filled first, in one
// pass, then the positions are evaluated in sub-query and point order.
// Everything runs on the simulation goroutine: Eq. 1 charges a position's
// computation as T_m on the virtual clock, so how many goroutines evaluate
// it in wall time is no part of the paper's system.
func (e *Engine) computeBatch(b *sched.Batch, atom *field.Atom) {
	space := e.cfg.Store.Space()
	var want field.Blocks
	for _, sq := range b.SubQueries {
		e.gathered = e.gathered[:0]
		for _, i := range sq.Index {
			e.gathered = append(e.gathered, sq.Query.Points[i])
		}
		want = want.Or(atom.Missing(sq.Query.Kernel, geom.AtomFromCode(sq.Atom.Code), e.gathered))
	}
	e.fill(atom, want)
	for _, sq := range b.SubQueries {
		var out []PointSample
		if st := e.states[sq.Query.ID]; st.result != nil {
			out = st.samples(sq)
		}
		ac := geom.AtomFromCode(sq.Atom.Code)
		for _, i := range sq.Index {
			pos := sq.Query.Points[i]
			val := field.Interpolate(sq.Query.Kernel, atom, space, ac, pos)
			if out != nil {
				out[i] = PointSample{Pos: geom3{X: pos.X, Y: pos.Y, Z: pos.Z}, Val: val}
			}
		}
	}
}

// complete finalizes a query: response-time accounting, run accounting,
// gating release, and successor arrival for ordered jobs.
func (e *Engine) complete(st *queryState, now time.Duration) {
	rt := now - st.q.Arrival
	e.rtSum += rt
	if e.results == nil {
		e.completedRT = append(e.completedRT, rt)
	}
	e.report.Completed++
	e.inst.noteCompleted(st.q, rt, now)
	if st.result != nil {
		// A chain with a step never evaluated (a compute-disabled path)
		// yields no values, not partial or wrongly differenced ones.
		if k := st.q.ChainLen(); st.filled != k*len(st.q.Points) {
			st.result.Positions = st.result.Positions[:0]
		} else if k > 1 {
			st.difference(e.derivWeights(k))
		}
		st.result.Completed = now
		e.report.Results = append(e.report.Results, st.result)
	}
	delete(e.states, st.q.ID)
	e.retiredStates = append(e.retiredStates, st)

	lj := e.jobsByID[st.q.JobID]
	j := lj.Job
	if j != nil {
		if lj.left--; lj.left > 0 {
			e.jobsByID[j.ID] = lj
		} else {
			delete(e.jobsByID, j.ID)
		}
	}
	if j != nil && j.Type == job.Ordered {
		if e.cfg.JobAware {
			e.graph.MarkDone(jobgraph.Ref{Job: st.q.JobID, Seq: st.q.Seq})
		}
		if st.q.Seq+1 < len(j.Queries) {
			succ := j.Queries[st.q.Seq+1]
			succ.Arrival = now + j.ThinkTime
			e.events.Push(succ.Arrival, succ)
			e.prefetchFor(j, st.q)
		} else if e.predictor != nil {
			e.predictor.Forget(j.ID)
		}
	}

	// Run accounting (§V.A): after r consecutive queries, report the
	// run's performance to the scheduler and let the cache close its run.
	e.runRTSum += rt.Seconds()
	e.runCount++
	if e.runCount >= e.cfg.RunLength {
		span := (now - e.runStart).Seconds()
		tp := 0.0
		if span > 0 {
			tp = float64(e.runCount) / span
		}
		meanRT := e.runRTSum / float64(e.runCount)
		e.runs++
		if e.results == nil {
			e.report.Runs = append(e.report.Runs, RunStats{
				EndedAt:     now,
				MeanRespSec: meanRT,
				Throughput:  tp,
				Alpha:       e.cfg.Sched.Alpha(),
			})
		}
		e.cfg.Sched.OnRunEnd(meanRT, tp)
		e.inst.noteRunEnd(now, e.runs, e.cfg.Sched.Alpha(), meanRT, tp)
		e.cfg.Cache.EndRun()
		e.runCount = 0
		e.runStart = now
		e.runRTSum = 0
	}
}

// pushUtilities coordinates the cache with the scheduler (URC, §V.B):
// after every scheduling decision the current per-atom workload throughput
// of the resident atoms and the per-step means are pushed into the
// policy. This is the continuous maintenance whose cost Table I reports.
func (e *Engine) pushUtilities() {
	urc, ok := e.cfg.Cache.Policy().(*cache.URC)
	if !ok {
		return
	}
	up, ok := e.cfg.Sched.(sched.UtilityProvider)
	if !ok {
		return
	}
	clear(e.stepMeans)
	for _, step := range up.PendingSteps() {
		e.stepMeans[step] = up.StepMean(step)
	}
	urc.ReplaceStepMeans(e.stepMeans)
	e.cfg.Cache.EachKey(func(id store.AtomID) {
		urc.SetAtomUtility(id, up.AtomUtility(id))
	})
	e.inst.noteUtilityPush()
}

// prefetchFor observes the just-completed query and fetches the predicted
// atoms of the job's next query into the cache, spending at most the
// job's think time of disk work (the window in which the job itself keeps
// the disk idle). Prediction misses waste only that bounded budget.
func (e *Engine) prefetchFor(j *job.Job, q *query.Query) {
	if e.predictor == nil {
		return
	}
	e.predictor.Observe(j.ID, q)
	predicted := e.predictor.Predict(j.ID)
	if len(predicted) == 0 {
		return
	}
	budget := j.ThinkTime
	for _, id := range predicted {
		if budget <= 0 {
			return
		}
		if e.cfg.Cache.Contains(id) || !e.cfg.Store.Contains(id) {
			continue
		}
		a, cost, err := e.readFrame(id)
		if err != nil {
			continue
		}
		e.putAtom(id, a)
		e.prefetched++
		e.inst.notePrefetch(e.clock.Now(), j.ID, id, cost)
		budget -= cost
	}
}

// finishReport computes the aggregate measures.
func (e *Engine) finishReport() {
	e.report.Scheduler = e.cfg.Sched.Name()
	e.report.Elapsed = e.clock.Now()
	if s := e.report.Elapsed.Seconds(); s > 0 {
		e.report.ThroughputQPS = float64(e.report.Completed) / s
	}
	if n := e.report.Completed; n > 0 {
		e.report.MeanResponse = e.rtSum / time.Duration(n)
	}
	if len(e.completedRT) > 0 {
		slices.Sort(e.completedRT)
		e.report.P50Response = obs.Quantile(e.completedRT, 50)
		e.report.P95Response = obs.Quantile(e.completedRT, 95)
	}
	e.report.CacheStats = e.cfg.Cache.Stats()
	e.report.DiskStats = e.cfg.Store.DiskStats()
	e.report.FinalAlpha = e.cfg.Sched.Alpha()
	e.report.PrefetchedAtoms = e.prefetched
	e.report.Faults = e.cfg.Fault.Counts()
	if e.graph != nil {
		e.report.GatingAdmitted = e.graph.EdgesAdmitted()
		e.report.GatingRejected = e.graph.EdgesRejected()
	}
}
