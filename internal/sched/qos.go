package sched

import (
	"sort"
	"time"

	"jaws/internal/obs"
	"jaws/internal/query"
	"jaws/internal/store"
)

// QoS implements the quality-of-service direction sketched in the paper's
// discussion (§VII): "predictable and fair completion time guarantees
// that are proportional to query size (e.g. short queries are delayed
// less than long queries). We observe that even with real-time
// constraints that bound the completion time of queries, there is still
// elasticity in the workload that permits the reordering of queries to
// exploit data sharing."
//
// Each query receives a deadline proportional to its estimated service
// time: deadline = arrival + Stretch × (atoms·T_b + positions·T_m). The
// scheduler exploits the elasticity before deadlines bind — it defers to
// an inner JAWS instance for contention-ordered batching — but whenever a
// pending sub-query's deadline falls within the look-ahead horizon, the
// atoms those urgent sub-queries need are scheduled first, earliest
// deadline first.
type QoS struct {
	inner *JAWS
	cost  CostModel
	// stretch is the proportionality factor between a query's isolated
	// service-time estimate and its completion-time bound.
	stretch float64
	// horizon is how far ahead of a deadline the scheduler starts
	// treating its sub-queries as urgent.
	horizon time.Duration

	deadlines map[query.ID]time.Duration
	// pendingCnt counts each query's queued sub-queries, so a deadline
	// verdict is delivered exactly once, when the query's last atom is
	// served. Which queries wait on which atom is not kept here: the inner
	// scheduler's atom queues say, and they are walked in key order.
	pendingCnt map[query.ID]int

	// Reused decision buffers (zero allocations in steady state).
	urgents []qosUrgent
	sorter  qosSorter
	out     []Batch

	// Decision capture for the flight recorder (see Explained). The
	// urgent EDF path fills exp; fallthrough rounds are captured by the
	// inner JAWS, and lastUrgent routes LastExplain to the right one.
	explain    bool
	exp        Explain
	lastUrgent bool

	missed int
	met    int
}

// qosUrgent is one urgent atom: the earliest deadline over the queries
// pending on it.
type qosUrgent struct {
	atom     store.AtomID
	deadline time.Duration
}

// qosSorter orders urgents either earliest-deadline-first (key on ties)
// or by clustered key for Morton execution. Preallocated so the decision
// path stays allocation-free.
type qosSorter struct {
	urgents []qosUrgent
	byKey   bool
}

func (s *qosSorter) Len() int { return len(s.urgents) }
func (s *qosSorter) Swap(i, j int) {
	s.urgents[i], s.urgents[j] = s.urgents[j], s.urgents[i]
}
func (s *qosSorter) Less(i, j int) bool {
	if s.byKey {
		return s.urgents[i].atom.Key() < s.urgents[j].atom.Key()
	}
	if s.urgents[i].deadline != s.urgents[j].deadline {
		return s.urgents[i].deadline < s.urgents[j].deadline
	}
	return s.urgents[i].atom.Key() < s.urgents[j].atom.Key()
}

// NewQoS wraps a JAWS scheduler with proportional completion-time
// guarantees. stretch ≤ 0 defaults to 8 (a query may take 8× its isolated
// service time); horizon ≤ 0 defaults to 2 s of virtual time.
func NewQoS(inner *JAWS, cost CostModel, stretch float64, horizon time.Duration) *QoS {
	if stretch <= 0 {
		stretch = 8
	}
	if horizon <= 0 {
		horizon = 2 * time.Second
	}
	return &QoS{
		inner:      inner,
		cost:       cost,
		stretch:    stretch,
		horizon:    horizon,
		deadlines:  make(map[query.ID]time.Duration),
		pendingCnt: make(map[query.ID]int),
	}
}

// Name implements Scheduler.
func (s *QoS) Name() string { return "JAWS+QoS" }

// estimate returns the isolated service-time estimate of a query from its
// first sub-query's shape: atoms × T_b plus positions × T_m. It is
// intentionally the same back-of-envelope a deployment would compute at
// admission time.
func (s *QoS) estimate(sq *query.SubQuery) time.Duration {
	atoms := 1 + len(sq.Footprint)
	return time.Duration(atoms)*s.cost.Tb +
		time.Duration(float64(len(sq.Query.Points))*sq.Query.Kernel.CostWeight())*s.cost.Tm
}

// Enqueue implements Scheduler.
func (s *QoS) Enqueue(sq *query.SubQuery, now time.Duration) {
	qid := sq.Query.ID
	if _, ok := s.deadlines[qid]; !ok {
		est := s.estimate(sq)
		s.deadlines[qid] = sq.Query.Arrival + time.Duration(s.stretch*float64(est))
	}
	s.pendingCnt[qid]++
	s.inner.Enqueue(sq, now)
}

// NextBatch implements Scheduler: serve urgent atoms (whose pending
// sub-queries have deadlines within the horizon) earliest-deadline-first;
// otherwise fall through to contention-ordered JAWS batching. The urgent
// pass reads the inner scheduler's atom queues, and the subsequent sort is
// a total order (deadline, then unique clustered key).
func (s *QoS) NextBatch(now time.Duration) []Batch {
	s.inner.q.beginDecision()
	s.urgents = s.urgents[:0]
	for _, b := range s.inner.q.buckets {
		for _, aq := range b.atoms {
			best := time.Duration(1<<62 - 1)
			for _, sq := range aq.subs {
				if d := s.deadlines[sq.Query.ID]; d < best {
					best = d
				}
			}
			if best <= now+s.horizon {
				s.urgents = append(s.urgents, qosUrgent{atom: aq.id, deadline: best})
			}
		}
	}
	var batches []Batch
	s.lastUrgent = len(s.urgents) > 0
	if len(s.urgents) > 0 {
		var exp *Explain
		if s.explain {
			exp = &s.exp
			exp.reset(s.Name(), s.inner.ctrl.alpha, len(s.inner.q.byAtom), s.inner.q.subs)
			exp.Urgent = true
		}
		s.sorter.urgents = s.urgents
		s.sorter.byKey = false
		sort.Sort(&s.sorter)
		// Take up to the inner batch size of urgent atoms, then execute in
		// Morton order (the data-sharing elasticity the paper notes
		// survives real-time constraints).
		k := s.inner.BatchSize()
		if len(s.urgents) > k {
			s.urgents = s.urgents[:k]
		}
		s.sorter.urgents = s.urgents
		s.sorter.byKey = true
		sort.Sort(&s.sorter)
		s.out = s.out[:0]
		for _, u := range s.urgents {
			if exp != nil {
				aq := s.inner.q.byAtom[u.atom]
				exp.captureAtom(&exp.Chosen, s.inner.q, aq,
					s.inner.q.ue(aq, s.inner.ctrl.alpha, now), now)
			}
			s.out = append(s.out, s.inner.q.take(u.atom))
		}
		batches = s.out
	} else {
		batches = s.inner.NextBatch(now)
	}
	// Bookkeeping: retire served sub-queries; the deadline verdict lands
	// once, when a query's final atom is served.
	for _, b := range batches {
		for _, sq := range b.SubQueries {
			qid := sq.Query.ID
			s.pendingCnt[qid]--
			if s.pendingCnt[qid] > 0 {
				continue
			}
			if now > s.deadlines[qid] {
				s.missed++
			} else {
				s.met++
			}
			delete(s.deadlines, qid)
			delete(s.pendingCnt, qid)
		}
	}
	return batches
}

// Pending implements Scheduler.
func (s *QoS) Pending() int { return s.inner.Pending() }

// OnRunEnd implements Scheduler.
func (s *QoS) OnRunEnd(rt, tp float64) { s.inner.OnRunEnd(rt, tp) }

// Alpha implements Scheduler.
func (s *QoS) Alpha() float64 { return s.inner.Alpha() }

// DeadlineMisses reports how many queries had their final atom served
// after their completion-time bound.
func (s *QoS) DeadlineMisses() int { return s.missed }

// DeadlinesMet reports how many queries finished within their bound.
func (s *QoS) DeadlinesMet() int { return s.met }

// SetTracer implements Traced by forwarding to the inner JAWS instance,
// so urgent batches taken directly from the inner queues are still traced
// by the fallthrough path's decisions.
func (s *QoS) SetTracer(t *obs.Tracer) { s.inner.SetTracer(t) }

// SetResidencyVersion implements ResidencyVersioned by forwarding to the
// inner JAWS instance.
func (s *QoS) SetResidencyVersion(fn func() uint64) { s.inner.SetResidencyVersion(fn) }

// SetExplain implements Explained: both the urgent EDF path (captured
// here) and the fallthrough path (captured by the inner JAWS) record.
func (s *QoS) SetExplain(on bool) {
	s.explain = on
	s.inner.SetExplain(on)
}

// LastExplain implements Explained.
func (s *QoS) LastExplain() *Explain {
	if !s.explain {
		return nil
	}
	if s.lastUrgent {
		return &s.exp
	}
	return s.inner.LastExplain()
}

// AtomUtility implements UtilityProvider.
func (s *QoS) AtomUtility(id store.AtomID) float64 { return s.inner.AtomUtility(id) }

// StepMean implements UtilityProvider.
func (s *QoS) StepMean(step int) float64 { return s.inner.StepMean(step) }

// PendingSteps implements UtilityProvider.
func (s *QoS) PendingSteps() []int { return s.inner.PendingSteps() }

var (
	_ Scheduler          = (*QoS)(nil)
	_ UtilityProvider    = (*QoS)(nil)
	_ Traced             = (*QoS)(nil)
	_ ResidencyVersioned = (*QoS)(nil)
	_ Explained          = (*QoS)(nil)
)
