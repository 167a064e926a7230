package sched

import (
	"time"

	"jaws/internal/obs"
	"jaws/internal/query"
	"jaws/internal/store"
)

// NoShare is the paper's baseline: each query is evaluated independently
// and in arrival order (§VI). No sub-queries from different queries are
// ever co-scheduled; the only I/O sharing is whatever the buffer cache
// happens to provide across consecutive queries.
type NoShare struct {
	observed
	fifo    []*noShareQuery // ring: the live entries are fifo[head:]
	head    int
	byQuery map[query.ID]*noShareQuery
	pending int

	// Reused decision buffers and the query-struct freelist (zero
	// allocations in steady state).
	free    []*noShareQuery
	out     []Batch
	singles []*query.SubQuery
}

type noShareQuery struct {
	id   query.ID
	subs []*query.SubQuery // pre-processing emits these in Morton order
}

// NewNoShare creates the arrival-order scheduler.
func NewNoShare() *NoShare {
	return &NoShare{byQuery: make(map[query.ID]*noShareQuery)}
}

// Name implements Scheduler.
func (s *NoShare) Name() string { return "NoShare" }

// Enqueue implements Scheduler. Sub-queries of one query stay grouped;
// queries are served strictly in the order their first sub-query arrived.
func (s *NoShare) Enqueue(sq *query.SubQuery, now time.Duration) {
	qs, ok := s.byQuery[sq.Query.ID]
	if !ok {
		if n := len(s.free); n > 0 {
			qs = s.free[n-1]
			s.free[n-1] = nil
			s.free = s.free[:n-1]
			qs.id = sq.Query.ID
		} else {
			qs = &noShareQuery{id: sq.Query.ID}
		}
		s.byQuery[sq.Query.ID] = qs
		s.fifo = append(s.fifo, qs)
	}
	qs.subs = append(qs.subs, sq)
	s.pending++
}

// NextBatch implements Scheduler: the whole next query, one batch per
// atom, in the Morton order pre-processing produced. The returned batches
// are valid until the next NextBatch call (see the Scheduler contract).
func (s *NoShare) NextBatch(now time.Duration) []Batch {
	if s.head == len(s.fifo) {
		return nil
	}
	var exp *Explain
	if s.explain {
		exp = &s.exp
		// Arrival-order scheduling has no step level or utilities: the
		// capture carries the FIFO depth and the served atoms only.
		resetExplain(exp, s.Name(), 0, len(s.fifo)-s.head, s.pending)
	}
	qs := s.fifo[s.head]
	s.fifo[s.head] = nil
	s.head++
	if s.head == len(s.fifo) {
		// Drained: reset the ring so the backing array is reused.
		s.fifo = s.fifo[:0]
		s.head = 0
	}
	delete(s.byQuery, qs.id)
	// The singleton SubQueries slices are carved out of one reused arena;
	// it is filled completely before any batch references it, so a growth
	// reallocation cannot strand earlier batches on an old backing array.
	s.singles = append(s.singles[:0], qs.subs...)
	s.out = s.out[:0]
	for i, sq := range qs.subs {
		s.out = append(s.out, Batch{Atom: sq.Atom, SubQueries: s.singles[i : i+1 : i+1]})
		// Arrival-order scheduling has no metric to report: U_t/U_e stay 0.
		s.trace.Decision(now, s.Name(), sq.Atom.Step, uint64(sq.Atom.Code), len(qs.subs), 0, 0, 0)
		if exp != nil {
			exp.Chosen = append(exp.Chosen, obs.DecisionAtom{
				Step: sq.Atom.Step, Code: uint64(sq.Atom.Code),
				Subs: 1, Queries: []int64{int64(qs.id)},
			})
		}
	}
	s.pending -= len(qs.subs)
	for i := range qs.subs {
		qs.subs[i] = nil
	}
	qs.subs = qs.subs[:0]
	s.free = append(s.free, qs)
	return s.out
}

// Pending implements Scheduler.
func (s *NoShare) Pending() int { return s.pending }

// OnRunEnd implements Scheduler (NoShare has nothing to adapt).
func (s *NoShare) OnRunEnd(rt, tp float64) {}

// Alpha implements Scheduler.
func (s *NoShare) Alpha() float64 { return 0 }

var (
	_ Scheduler = (*NoShare)(nil)
	_ Traced    = (*NoShare)(nil)
	_ Explained = (*NoShare)(nil)
)

// LifeRaft is the data-driven batch scheduler of §III adapted to
// Turbulence: one atom queue at a time, chosen by the aged workload
// throughput metric U_e with a fixed, manually configured age bias α.
// α = 0 is the contention-based throughput maximizer (LifeRaft_2 in the
// evaluation); α = 1 schedules by queue age, i.e. near arrival order, but
// still co-schedules sub-queries that reference the same atom
// (LifeRaft_1).
type LifeRaft struct {
	queueCore
	alpha float64
	// outBatch is the reused single-batch decision buffer.
	outBatch [1]Batch
}

// NewLifeRaft creates a LifeRaft scheduler. resident reports cache
// residency for the φ(i) term and may be nil (always miss).
func NewLifeRaft(cost CostModel, alpha float64, resident func(store.AtomID) bool) *LifeRaft {
	if alpha < 0 {
		alpha = 0
	}
	if alpha > 1 {
		alpha = 1
	}
	return &LifeRaft{queueCore: queueCore{q: newQueues(cost, resident)}, alpha: alpha}
}

// Name implements Scheduler.
func (s *LifeRaft) Name() string { return "LifeRaft" }

// Enqueue implements Scheduler.
func (s *LifeRaft) Enqueue(sq *query.SubQuery, now time.Duration) { s.q.add(sq, now) }

// NextBatch implements Scheduler: the single atom queue with the highest
// aged workload throughput (LifeRaft schedules one atom at a time; the
// two-level batching of k atoms is what JAWS adds). The scan runs in the
// model's key order with strict >, so ties go to the lowest clustered key;
// at α = 0 it reads memoized U_t values.
func (s *LifeRaft) NextBatch(now time.Duration) []Batch {
	s.q.beginDecision()
	if s.q.subs == 0 {
		return nil
	}
	s.q.syncResidency()
	var best *atomQueue
	bestScore := 0.0
	for _, b := range s.q.buckets {
		for _, aq := range b.atoms {
			score := s.q.ue(aq, s.alpha, now)
			if best == nil || score > bestScore {
				best, bestScore = aq, score
			}
		}
	}
	if s.trace.Enabled() {
		s.trace.Decision(now, s.Name(), best.id.Step, uint64(best.id.Code),
			1, s.q.ut(best), bestScore, s.alpha)
	}
	if s.explain {
		exp := &s.exp
		resetExplain(exp, s.Name(), s.alpha, len(s.q.byAtom), s.q.subs)
		for _, b := range s.q.buckets {
			captureStep(exp, s.q, b, s.alpha, now)
		}
		exp.WinnerStep = best.id.Step
		captureAtom(&exp.Chosen, s.q, best, bestScore, now)
	}
	s.outBatch[0] = s.q.take(best.id)
	return s.outBatch[:]
}

// OnRunEnd implements Scheduler (α is fixed in LifeRaft; adaptation is a
// JAWS contribution).
func (s *LifeRaft) OnRunEnd(rt, tp float64) {}

// Alpha implements Scheduler.
func (s *LifeRaft) Alpha() float64 { return s.alpha }

var (
	_ Scheduler          = (*LifeRaft)(nil)
	_ UtilityProvider    = (*LifeRaft)(nil)
	_ Traced             = (*LifeRaft)(nil)
	_ ResidencyVersioned = (*LifeRaft)(nil)
	_ Explained          = (*LifeRaft)(nil)
)
