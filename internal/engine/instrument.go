package engine

import (
	"time"

	"jaws/internal/cache"
	"jaws/internal/field"
	"jaws/internal/job"
	"jaws/internal/jobgraph"
	"jaws/internal/obs"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/store"
)

// responseBounds buckets query response times (seconds) from the
// interactive regime the paper targets up to heavily saturated runs.
var responseBounds = []float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 300}

// decisionBounds buckets the per-decision batch size k; the paper finds
// the optimum between 10 and 15.
var decisionBounds = []float64{1, 2, 5, 10, 15, 20, 30, 50}

// waitBounds buckets gating wait (seconds).
var waitBounds = []float64{0.1, 0.5, 1, 5, 10, 30, 60, 300, 600}

// instruments pre-resolves every metric the engine updates so hot paths
// pay one pointer dereference, not a registry lookup. A nil *instruments
// (observability not configured) is valid: all methods no-op, and the
// obs package's own nil-receiver contract covers the individual metrics.
type instruments struct {
	trace *obs.Tracer
	// spans tracks query lifecycles; nil unless a tracer or span
	// aggregator is configured (metrics-only runs skip the per-advance
	// distribution cost).
	spans *spanTracker

	// flight is the decision flight recorder; nil disables and keeps the
	// decision path at one branch per capture site. engineID labels the
	// records, flightSeq numbers them, blockedBuf is the reusable
	// BlockedBy scratch.
	flight     *obs.FlightRecorder
	engineID   int
	flightSeq  int64
	blockedBuf []jobgraph.Ref

	decisions     *obs.Counter   // scheduling decisions submitted
	decisionAtoms *obs.Histogram // batch size k per decision
	batchAtoms    *obs.Counter   // atoms executed in decisions
	completed     *obs.Counter   // queries completed
	response      *obs.Histogram // per-query response time (s)
	runs          *obs.Counter   // adaptation runs ended
	alphaGauge    *obs.Gauge     // current age bias α
	sampleBytes   *obs.Gauge     // sample memory of the engine's row arena

	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter

	diskReads    *obs.Counter
	diskSeqReads *obs.Counter
	diskBytes    *obs.Counter

	prefetchAtoms *obs.Counter

	gateBlocked   *obs.Counter
	gateWait      *obs.Histogram // gating delay per admitted query (s)
	edgesAdmitted *obs.Counter
	edgesRejected *obs.Counter

	utilityPushes *obs.Counter

	faultRetries     *obs.Counter // reads retried after transient errors
	faultAborts      *obs.Counter // reads abandoned (run aborts)
	faultCorruptions *obs.Counter // cache payloads dropped as corrupt
	nodeCrashes      *obs.Counter // injector-scheduled node deaths
	stallAborts      *obs.Counter // stall-limit deadlock aborts

	// blockedAt records the virtual time gating first held each query
	// back, so the eventual admission can carry the accumulated wait.
	blockedAt map[query.ID]time.Duration
}

// engineMetricHelp is the # HELP text for every metric the engine
// registers, emitted by the registry's Prometheus exposition.
var engineMetricHelp = map[string]string{
	"jaws_decisions_total":           "Scheduling decisions submitted to the engine.",
	"jaws_decision_atoms":            "Batch size k per scheduling decision.",
	"jaws_batch_atoms_total":         "Atoms executed inside scheduling decisions.",
	"jaws_queries_completed_total":   "Queries completed by the engine.",
	"jaws_response_seconds":          "Per-query response time on the virtual clock.",
	"jaws_runs_total":                "Adaptation runs ended by the alpha controller.",
	"jaws_alpha":                     "Current age bias alpha of the JAWS scheduler.",
	"jaws_sample_bytes":              "Bytes of atom samples the engine's row arena holds: rows in use, free, and not yet handed out.",
	"jaws_cache_hits_total":          "Atom cache hits.",
	"jaws_cache_misses_total":        "Atom cache misses (lookups that went to disk).",
	"jaws_cache_evictions_total":     "Atoms evicted from the cache.",
	"jaws_disk_reads_total":          "Reads issued to the simulated disk array.",
	"jaws_disk_seq_reads_total":      "Reads that continued a sequential run (no seek).",
	"jaws_disk_bytes_total":          "Bytes read from the simulated disk array.",
	"jaws_prefetch_atoms_total":      "Atoms loaded by trajectory prefetching.",
	"jaws_gate_blocked_total":        "Queries job-aware gating held back at least once.",
	"jaws_gate_wait_seconds":         "Gating delay per admitted query.",
	"jaws_gate_edges_admitted_total": "Gating-graph edges admitted.",
	"jaws_gate_edges_rejected_total": "Gating-graph edges rejected.",
	"jaws_utility_pushes_total":      "URC cache-coordination passes.",
	"jaws_fault_retries_total":       "Atom reads retried after injected transient errors.",
	"jaws_fault_aborts_total":        "Atom reads abandoned after exhausting retries.",
	"jaws_fault_corruptions_total":   "Cache payloads dropped as corrupt.",
	"jaws_node_crashes_total":        "Injector-scheduled node deaths.",
	"jaws_stall_aborts_total":        "Runs aborted after StallLimit iterations without progress.",
}

// newInstruments resolves the engine's metrics against o's registry and
// captures its tracer. Returns nil when o carries neither, so the
// uninstrumented engine holds a single nil pointer.
func newInstruments(o *obs.Obs) *instruments {
	if o == nil || (o.Trace == nil && o.Reg == nil && o.Spans == nil && o.Flight == nil) {
		return nil
	}
	reg := o.Registry()
	for name, help := range engineMetricHelp {
		reg.Describe(name, help)
	}
	return &instruments{
		trace:          o.Tracer(),
		spans:          newSpanTracker(o),
		flight:         o.Recorder(),
		decisions:      reg.Counter("jaws_decisions_total"),
		decisionAtoms:  reg.Histogram("jaws_decision_atoms", decisionBounds...),
		batchAtoms:     reg.Counter("jaws_batch_atoms_total"),
		completed:      reg.Counter("jaws_queries_completed_total"),
		response:       reg.Histogram("jaws_response_seconds", responseBounds...),
		runs:           reg.Counter("jaws_runs_total"),
		alphaGauge:     reg.Gauge("jaws_alpha"),
		sampleBytes:    reg.Gauge("jaws_sample_bytes"),
		cacheHits:      reg.Counter("jaws_cache_hits_total"),
		cacheMisses:    reg.Counter("jaws_cache_misses_total"),
		cacheEvictions: reg.Counter("jaws_cache_evictions_total"),
		diskReads:      reg.Counter("jaws_disk_reads_total"),
		diskSeqReads:   reg.Counter("jaws_disk_seq_reads_total"),
		diskBytes:      reg.Counter("jaws_disk_bytes_total"),
		prefetchAtoms:  reg.Counter("jaws_prefetch_atoms_total"),
		gateBlocked:    reg.Counter("jaws_gate_blocked_total"),
		gateWait:       reg.Histogram("jaws_gate_wait_seconds", waitBounds...),
		edgesAdmitted:  reg.Counter("jaws_gate_edges_admitted_total"),
		edgesRejected:  reg.Counter("jaws_gate_edges_rejected_total"),
		utilityPushes:  reg.Counter("jaws_utility_pushes_total"),

		faultRetries:     reg.Counter("jaws_fault_retries_total"),
		faultAborts:      reg.Counter("jaws_fault_aborts_total"),
		faultCorruptions: reg.Counter("jaws_fault_corruptions_total"),
		nodeCrashes:      reg.Counter("jaws_node_crashes_total"),
		stallAborts:      reg.Counter("jaws_stall_aborts_total"),

		blockedAt: make(map[query.ID]time.Duration),
	}
}

// install wires the observability hooks into the engine's components.
// It runs unconditionally from New — with a nil receiver it clears any
// hooks a previous engine left on the shared store/cache/scheduler (the
// facade reuses them across runs), so a later uninstrumented run never
// emits into a dead tracer.
func (in *instruments) install(e *Engine) {
	if in == nil {
		e.cfg.Cache.SetObserver(cache.Observer{})
		e.cfg.Store.SetIOObserver(nil)
		if tr, ok := e.cfg.Sched.(sched.Traced); ok {
			tr.SetTracer(nil)
		}
		if ex, ok := e.cfg.Sched.(sched.Explained); ok {
			ex.SetExplain(false)
		}
		if e.graph != nil {
			e.graph.SetObserver(nil)
		}
		return
	}
	in.engineID = e.cfg.EngineID
	// Decision capture follows the recorder: flipped on only when flight
	// records are being collected, cleared otherwise (the facade reuses
	// schedulers across runs).
	if ex, ok := e.cfg.Sched.(sched.Explained); ok {
		ex.SetExplain(in.flight.Enabled())
	}
	e.cfg.Cache.SetObserver(cache.Observer{
		Hit: func(id store.AtomID) {
			in.cacheHits.Inc()
			in.trace.CacheHit(e.clock.Now(), id.Step, uint64(id.Code))
			if in.spans != nil {
				in.spans.noteCache(true)
			}
		},
		Miss: func(id store.AtomID) {
			in.cacheMisses.Inc()
			in.trace.CacheMiss(e.clock.Now(), id.Step, uint64(id.Code))
			if in.spans != nil {
				in.spans.noteCache(false)
			}
		},
		Evict: func(id store.AtomID) {
			in.cacheEvictions.Inc()
			in.trace.CacheEvict(e.clock.Now(), id.Step, uint64(id.Code))
		},
		Corrupt: func(id store.AtomID) {
			in.faultCorruptions.Inc()
		},
	})
	e.cfg.Store.SetIOObserver(func(addr, size int64, seq bool, cost time.Duration) {
		in.diskReads.Inc()
		if seq {
			in.diskSeqReads.Inc()
		}
		in.diskBytes.Add(size)
		in.trace.DiskRead(e.clock.Now(), addr, size, seq, cost)
	})
	if tr, ok := e.cfg.Sched.(sched.Traced); ok {
		tr.SetTracer(in.trace)
	}
	if e.graph != nil {
		e.graph.SetObserver(func(admitted bool, u, v jobgraph.Ref) {
			if admitted {
				in.edgesAdmitted.Inc()
			} else {
				in.edgesRejected.Inc()
			}
			in.trace.GateEdge(e.clock.Now(), admitted, u.Job, u.Seq, v.Job, v.Seq)
		})
	}
}

// noteDecision records one scheduler decision of len(batches) atoms.
func (in *instruments) noteDecision(batches int) {
	if in == nil {
		return
	}
	in.decisions.Inc()
	in.decisionAtoms.Observe(float64(batches))
	in.batchAtoms.Add(int64(batches))
}

// noteFlight turns the scheduler's decision capture into one flight
// record: winner and batch with per-atom utilities, runner-up steps
// with mean-U_e margins, queue depths, and the gating edges holding
// arrived queries out of the race. The capture's slices are adopted,
// not copied — the scheduler nils them at its next reset, so the record
// owns the arrays outright. Disabled (no recorder) this is one branch.
func (in *instruments) noteFlight(e *Engine, batches []sched.Batch) {
	if in == nil || !in.flight.Enabled() {
		return
	}
	rec := &obs.DecisionRecord{
		Engine:     in.engineID,
		Seq:        in.flightSeq,
		T:          e.clock.Now(),
		Sched:      e.cfg.Sched.Name(),
		Alpha:      e.cfg.Sched.Alpha(),
		WinnerStep: -1,
	}
	in.flightSeq++
	if ex, ok := e.cfg.Sched.(sched.Explained); ok {
		if exp := ex.LastExplain(); exp != nil {
			rec.Sched = exp.Sched
			rec.Alpha = exp.Alpha
			rec.Urgent = exp.Urgent
			rec.WinnerStep = exp.WinnerStep
			rec.PendingAtoms = exp.PendingAtoms
			rec.PendingSubs = exp.PendingSubs
			rec.Steps = exp.Steps
			rec.Chosen = exp.Chosen
			rec.Truncated = exp.Truncated
		}
	}
	// Schedulers without decision capture still yield a joinable record:
	// rebuild the chosen set from the batches themselves.
	if len(rec.Chosen) == 0 && len(batches) > 0 {
		rec.Chosen = make([]obs.DecisionAtom, 0, len(batches))
		for i := range batches {
			a := obs.DecisionAtom{
				Step: batches[i].Atom.Step,
				Code: uint64(batches[i].Atom.Code),
				Subs: len(batches[i].SubQueries),
			}
			a.Queries = make([]int64, 0, len(batches[i].SubQueries))
			for _, sq := range batches[i].SubQueries {
				a.Queries = append(a.Queries, int64(sq.Query.ID))
			}
			rec.Chosen = append(rec.Chosen, a)
		}
	}
	// Gating edges: every held-back arrived query, and who it waits on.
	if e.graph != nil {
		for _, q := range e.arrived {
			j := e.jobsByID[q.JobID].Job
			if j == nil || j.Type != job.Ordered {
				continue
			}
			in.blockedBuf = e.graph.BlockedBy(jobgraph.Ref{Job: q.JobID, Seq: q.Seq}, in.blockedBuf[:0])
			for _, b := range in.blockedBuf {
				edge := obs.DecisionEdge{
					Query: int64(q.ID), Job: q.JobID, Seq: q.Seq,
					OnJob: b.Job, OnSeq: b.Seq,
				}
				if bj := e.jobsByID[b.Job].Job; bj != nil && b.Seq >= 0 && b.Seq < len(bj.Queries) {
					edge.OnQuery = int64(bj.Queries[b.Seq].ID)
				}
				rec.Blocked = append(rec.Blocked, edge)
			}
		}
	}
	in.flight.Record(rec)
}

// noteCompleted records a finished query's response time and closes its
// lifecycle span.
func (in *instruments) noteCompleted(q *query.Query, rt, now time.Duration) {
	if in == nil {
		return
	}
	in.completed.Inc()
	in.response.Observe(rt.Seconds())
	if in.spans != nil {
		in.spans.complete(q.ID, now)
	}
}

// noteRunEnd records an adaptation-run boundary and the α the scheduler
// settled on after seeing the run's performance.
func (in *instruments) noteRunEnd(now time.Duration, run int, alpha, rt, tp float64) {
	if in == nil {
		return
	}
	in.runs.Inc()
	in.alphaGauge.Set(alpha)
	in.trace.Alpha(now, run, alpha, rt, tp)
}

// noteBlocked records that gating held q back, once per query.
func (in *instruments) noteBlocked(q *query.Query, now time.Duration) {
	if in == nil {
		return
	}
	if _, ok := in.blockedAt[q.ID]; ok {
		return
	}
	in.blockedAt[q.ID] = now
	in.gateBlocked.Inc()
	in.trace.GateBlock(now, int64(q.ID), q.JobID, q.Seq)
}

// noteDispatched records a query entering the workload queues and opens
// its lifecycle span; queries gating previously held back carry their
// accumulated wait.
func (in *instruments) noteDispatched(q *query.Query, now time.Duration) {
	if in == nil {
		return
	}
	blocked, wasBlocked := in.blockedAt[q.ID]
	if wasBlocked {
		delete(in.blockedAt, q.ID)
		wait := now - blocked
		in.gateWait.Observe(wait.Seconds())
		in.trace.GateAdmit(now, int64(q.ID), q.JobID, q.Seq, wait)
	}
	if in.spans != nil {
		in.spans.dispatch(q, now, wasBlocked)
	}
}

// noteAdvance attributes one virtual-clock advance to the phases of the
// in-flight spans. This is the engine's hottest instrumentation point:
// with observability disabled it is a single nil check.
func (in *instruments) noteAdvance(c spanCause, d time.Duration) {
	if in == nil || in.spans == nil {
		return
	}
	in.spans.advance(c, d)
}

// noteBeginDecision marks the queries served by the decision about to
// execute (decision → batch → query linkage for attribution).
func (in *instruments) noteBeginDecision(batches []sched.Batch) {
	if in == nil || in.spans == nil {
		return
	}
	in.spans.beginDecision(batches)
}

// noteSampleBytes records the sample memory the engine's row arena holds.
func (in *instruments) noteSampleBytes(rows *field.RowArena) {
	if in == nil {
		return
	}
	in.sampleBytes.Set(float64(rows.Bytes()))
}

// noteEndDecision closes the decision's serving window.
func (in *instruments) noteEndDecision() {
	if in == nil || in.spans == nil {
		return
	}
	in.spans.endDecision()
}

// notePrefetch records one atom loaded by trajectory prefetching.
func (in *instruments) notePrefetch(now time.Duration, job int64, id store.AtomID, cost time.Duration) {
	if in == nil {
		return
	}
	in.prefetchAtoms.Inc()
	in.trace.Prefetch(now, job, id.Step, uint64(id.Code), cost)
}

// noteUtilityPush records one URC coordination pass.
func (in *instruments) noteUtilityPush() {
	if in == nil {
		return
	}
	in.utilityPushes.Inc()
}

// noteRetry records one retried atom read and the backoff charged.
func (in *instruments) noteRetry(now time.Duration, id store.AtomID, attempt int, backoff time.Duration) {
	if in == nil {
		return
	}
	in.faultRetries.Inc()
	in.trace.FaultRetry(now, id.Step, uint64(id.Code), attempt, backoff)
}

// noteFaultAbort records a read abandoned after attempt+1 attempts.
func (in *instruments) noteFaultAbort(now time.Duration, id store.AtomID, attempt int) {
	if in == nil {
		return
	}
	in.faultAborts.Inc()
	in.trace.FaultAbort(now, id.Step, uint64(id.Code), attempt)
}

// noteCrash records the injector killing this node.
func (in *instruments) noteCrash(now time.Duration, node int) {
	if in == nil {
		return
	}
	in.nodeCrashes.Inc()
	in.trace.NodeCrash(now, node)
}

// noteStallAbort records a stall-limit abort (gated-execution deadlock).
func (in *instruments) noteStallAbort(now time.Duration) {
	if in == nil {
		return
	}
	in.stallAborts.Inc()
	in.trace.StallAbort(now)
}
