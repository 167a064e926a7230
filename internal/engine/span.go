package engine

import (
	"time"

	"jaws/internal/obs"
	"jaws/internal/query"
	"jaws/internal/sched"
)

// spanCause classifies a virtual-clock advance for response-time
// attribution. Every clock advance the engine performs is tagged with the
// component that charged it; the span tracker folds the advance into the
// matching phase of every in-flight query.
type spanCause uint8

const (
	// causeWait is idle fast-forward or any advance outside a decision.
	causeWait spanCause = iota
	// causeOverhead is the fixed per-decision submission cost.
	causeOverhead
	// causeDisk is disk-read time, failure-detection latency, and retry
	// backoff.
	causeDisk
	// causeCompute is kernel-evaluation time.
	causeCompute
)

// spanTracker maintains the lifecycle span of every in-flight query. It
// lives inside instruments, so a run without observability never
// constructs one and the hot-path hooks reduce to a nil check.
//
// The attribution invariant (obs.Span) holds by construction: a span's
// Gated phase is measured directly as dispatch − arrival, and from
// dispatch to completion every clock advance is charged to exactly one
// phase of every in-flight span — service phases when the executing
// decision serves the query, Queued otherwise.
type spanTracker struct {
	trace *obs.Tracer  // nil: spans not traced
	agg   *obs.SpanAgg // nil: spans not collected

	inflight   map[query.ID]*spanState
	inDecision bool
}

type spanState struct {
	span    obs.Span
	serving bool // the executing decision serves this query
}

// newSpanTracker returns nil unless at least one span consumer is
// configured — tracking costs O(in-flight) per clock advance, so it is
// paid only when someone wants the result.
func newSpanTracker(o *obs.Obs) *spanTracker {
	if o == nil || (o.Trace == nil && o.Spans == nil) {
		return nil
	}
	return &spanTracker{
		trace:    o.Trace,
		agg:      o.Spans,
		inflight: make(map[query.ID]*spanState),
	}
}

// dispatch opens the span as the query enters the workload queues: the
// whole arrival → dispatch interval is the Gated phase.
func (tk *spanTracker) dispatch(q *query.Query, now time.Duration, blocked bool) {
	tk.inflight[q.ID] = &spanState{span: obs.Span{
		Query:   int64(q.ID),
		Job:     q.JobID,
		Seq:     q.Seq,
		Req:     q.ReqID,
		Arrival: q.Arrival,
		Gated:   now - q.Arrival,
		Blocked: blocked,
	}}
}

// advance charges one clock advance to every in-flight span.
func (tk *spanTracker) advance(c spanCause, d time.Duration) {
	if d <= 0 {
		return
	}
	for _, st := range tk.inflight {
		if st.serving {
			switch c {
			case causeOverhead:
				st.span.Overhead += d
			case causeDisk:
				st.span.Disk += d
			case causeCompute:
				st.span.Compute += d
			default:
				st.span.Queued += d
			}
		} else {
			st.span.Queued += d
		}
	}
}

// beginDecision marks the queries the decision's batches serve; their
// subsequent advances charge service phases instead of Queued.
func (tk *spanTracker) beginDecision(batches []sched.Batch) {
	tk.inDecision = true
	for i := range batches {
		for _, sq := range batches[i].SubQueries {
			if st := tk.inflight[sq.Query.ID]; st != nil && !st.serving {
				st.serving = true
				st.span.Decisions++
			}
		}
	}
}

// endDecision clears the serving marks.
func (tk *spanTracker) endDecision() {
	if !tk.inDecision {
		return
	}
	tk.inDecision = false
	for _, st := range tk.inflight {
		st.serving = false
	}
}

// noteCache attributes one cache lookup of the executing decision to the
// spans it serves.
func (tk *spanTracker) noteCache(hit bool) {
	if !tk.inDecision {
		return // prefetch and other out-of-decision cache traffic
	}
	for _, st := range tk.inflight {
		if !st.serving {
			continue
		}
		if hit {
			st.span.Hits++
		} else {
			st.span.Misses++
		}
	}
}

// complete closes the span and hands it to the configured consumers. A
// query completes mid-decision; removing it here stops the decision's
// remaining advances from leaking past Done.
func (tk *spanTracker) complete(id query.ID, now time.Duration) {
	st := tk.inflight[id]
	if st == nil {
		return
	}
	delete(tk.inflight, id)
	st.span.Done = now
	tk.agg.Add(st.span)
	tk.trace.SpanDone(st.span)
}
