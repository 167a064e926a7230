package oracle

import (
	"fmt"
	"slices"
	"time"

	"jaws/internal/obs"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/store"
)

// OpKind discriminates the operations of an OpLog.
type OpKind int

const (
	// OpEnqueue is one sub-query admission.
	OpEnqueue OpKind = iota
	// OpDecision is one NextBatch call, with the cache-residency snapshot
	// the production scheduler saw and the batches it returned.
	OpDecision
	// OpRunEnd is one adaptation-run report to the α controller.
	OpRunEnd
)

// Op is one recorded scheduler interaction. Exactly the fields of its
// kind are set.
type Op struct {
	Kind OpKind
	Now  time.Duration

	// Enqueue. Sub is the log's own copy of the sub-query: the engine
	// recycles the record it enqueued once the query completes. Gate is
	// the state the gate source gave the scheduler for Sub's query during
	// the call — GateFree when it asked nothing, as a scheduler without a
	// gate-aware clause does. A source gives a query one state while any
	// of its sub-queries is pending (sched.GateAware), so the replay
	// answers every later read of the query with it.
	Sub  *query.SubQuery
	Gate sched.GateState

	// Decision. Resident snapshots residency of every then-pending atom —
	// NextBatch consults the cache only for queued atoms, and the cache
	// cannot change during the call, so the snapshot is exact. Got is the
	// production scheduler's answer (nil once a log has been shrunk).
	Resident map[store.AtomID]bool
	Got      []sched.Batch

	// Run end.
	RT, TP float64
}

// OpLog is a recorded sequence of scheduler interactions, replayable
// against any Model or production scheduler.
type OpLog struct {
	Ops []Op
}

// RecordingSched wraps a production scheduler, recording every
// interaction into an OpLog while delegating unchanged. The engine's
// behaviour is unaffected: the wrapper adds bookkeeping, never decisions.
type RecordingSched struct {
	inner    sched.Scheduler
	resident func(store.AtomID) bool
	log      *OpLog
	pending  map[store.AtomID]int
	// stable maps a sub-query record of the engine's to the log's copy of
	// what it currently holds. An entry is overwritten when the engine
	// reuses the record, which it does only after the sub-query it held
	// was served, so a decision always finds its own.
	stable map[*query.SubQuery]*query.SubQuery
	// gate is the state the inner scheduler read during the enqueue in
	// flight (see SetGateSource).
	gate sched.GateState
}

// NewRecordingSched wraps inner. resident is the same residency oracle
// the production scheduler consults (the cache's Contains); it is used
// only to snapshot, never to decide, and may be nil.
func NewRecordingSched(inner sched.Scheduler, resident func(store.AtomID) bool) *RecordingSched {
	return &RecordingSched{
		inner:    inner,
		resident: resident,
		log:      &OpLog{},
		pending:  make(map[store.AtomID]int),
		stable:   make(map[*query.SubQuery]*query.SubQuery),
	}
}

// Log returns the accumulated op log.
func (r *RecordingSched) Log() *OpLog { return r.log }

// Name implements sched.Scheduler.
func (r *RecordingSched) Name() string { return r.inner.Name() }

// Enqueue implements sched.Scheduler. sq is valid only until its query
// completes, so the log keeps a deep copy (the Query is the caller's and
// stays shared).
func (r *RecordingSched) Enqueue(sq *query.SubQuery, now time.Duration) {
	cp := *sq
	cp.Index, cp.Footprint = slices.Clone(sq.Index), slices.Clone(sq.Footprint)
	r.stable[sq] = &cp
	r.pending[sq.Atom]++
	r.gate = sched.GateFree
	r.inner.Enqueue(sq, now)
	r.log.Ops = append(r.log.Ops, Op{Kind: OpEnqueue, Now: now, Sub: &cp, Gate: r.gate})
}

// Snapshot copies a decision the wrapped scheduler just returned, with
// every sub-query replaced by the log's copy of it — what a recorder may
// keep beyond the decision.
func (r *RecordingSched) Snapshot(batches []sched.Batch) []sched.Batch {
	cp := make([]sched.Batch, len(batches))
	for i, b := range batches {
		subs := make([]*query.SubQuery, len(b.SubQueries))
		for j, sq := range b.SubQueries {
			subs[j] = r.stable[sq]
		}
		cp[i] = sched.Batch{Atom: b.Atom, SubQueries: subs}
	}
	return cp
}

// NextBatch implements sched.Scheduler: snapshot residency of the pending
// atoms, delegate, record the answer.
func (r *RecordingSched) NextBatch(now time.Duration) []sched.Batch {
	snap := make(map[store.AtomID]bool, len(r.pending))
	for id := range r.pending {
		snap[id] = r.resident != nil && r.resident(id)
	}
	got := r.inner.NextBatch(now)
	for _, b := range got {
		if r.pending[b.Atom] -= len(b.SubQueries); r.pending[b.Atom] <= 0 {
			delete(r.pending, b.Atom)
		}
	}
	r.log.Ops = append(r.log.Ops, Op{Kind: OpDecision, Now: now, Resident: snap, Got: r.Snapshot(got)})
	return got
}

// Pending implements sched.Scheduler.
func (r *RecordingSched) Pending() int { return r.inner.Pending() }

// OnRunEnd implements sched.Scheduler.
func (r *RecordingSched) OnRunEnd(rt, tp float64) {
	r.log.Ops = append(r.log.Ops, Op{Kind: OpRunEnd, RT: rt, TP: tp})
	r.inner.OnRunEnd(rt, tp)
}

// Alpha implements sched.Scheduler.
func (r *RecordingSched) Alpha() float64 { return r.inner.Alpha() }

// SetTracer implements sched.Traced, passing the tracer through so an
// instrumented engine traces the wrapped scheduler as usual.
func (r *RecordingSched) SetTracer(t *obs.Tracer) {
	if tr, ok := r.inner.(sched.Traced); ok {
		tr.SetTracer(t)
	}
}

// SetResidencyVersion implements sched.ResidencyVersioned, passing the
// cache's mutation counter through so the wrapped scheduler's memoized
// utility path stays engaged under recording — the differential suite
// must certify the incremental structures, not a fallback.
func (r *RecordingSched) SetResidencyVersion(fn func() uint64) {
	if rv, ok := r.inner.(sched.ResidencyVersioned); ok {
		rv.SetResidencyVersion(fn)
	}
}

// SetGateSource implements sched.GateAware, passing the engine's job-graph
// gate source through a tap that notes the state the wrapped scheduler
// reads, so each enqueue's op carries the gate state its sub-query was
// admitted under — and GateFree for a scheduler that never asks.
func (r *RecordingSched) SetGateSource(fn func(query.ID) sched.GateState) {
	ga, ok := r.inner.(sched.GateAware)
	if !ok {
		return
	}
	if fn == nil {
		ga.SetGateSource(nil)
		return
	}
	ga.SetGateSource(func(q query.ID) sched.GateState {
		r.gate = fn(q)
		return r.gate
	})
}

var (
	_ sched.Scheduler          = (*RecordingSched)(nil)
	_ sched.Traced             = (*RecordingSched)(nil)
	_ sched.ResidencyVersioned = (*RecordingSched)(nil)
	_ sched.GateAware          = (*RecordingSched)(nil)
)

// batchesEqual reports whether two decision answers agree exactly: same
// batch count, same atoms in the same order, same sub-queries (by
// identity) in the same order.
func batchesEqual(a, b []sched.Batch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Atom != b[i].Atom || len(a[i].SubQueries) != len(b[i].SubQueries) {
			return false
		}
		for j := range a[i].SubQueries {
			if a[i].SubQueries[j] != b[i].SubQueries[j] {
				return false
			}
		}
	}
	return true
}

// describeBatches renders a decision answer compactly for reports.
func describeBatches(bs []sched.Batch) string {
	if len(bs) == 0 {
		return "[]"
	}
	s := "["
	for i, b := range bs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("s%d/a%d×%d", b.Atom.Step, b.Atom.Code, len(b.SubQueries))
	}
	return s + "]"
}
