package sched

import (
	"time"

	"jaws/internal/query"
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
// scheduler exploits the elasticity before deadlines bind — JAWS's
// contention-ordered batching runs untouched — but whenever a pending
// sub-query's deadline falls within the look-ahead horizon, the atoms
// those urgent sub-queries need are scheduled first, earliest deadline
// first: the urgent pre-pass of the JAWS selector.
//
// QoS is a handle on the JAWS scheduler the pre-pass was installed on: it
// schedules exactly as that scheduler does (every method is the embedded
// one) and adds the deadline verdicts.
type QoS struct {
	*JAWS
}

// qosPass is the state of the urgent pre-pass.
type qosPass struct {
	cost CostModel
	// stretch is the proportionality factor between a query's isolated
	// service-time estimate and its completion-time bound.
	stretch float64
	// horizon is how far ahead of a deadline the scheduler starts
	// treating its sub-queries as urgent.
	horizon time.Duration

	deadlines map[query.ID]time.Duration
	// pendingCnt counts each query's queued sub-queries, so a deadline
	// verdict is delivered exactly once, when the query's last atom is
	// served. Which queries wait on which atom is not kept here: the atom
	// queues say, and they are walked in key order.
	pendingCnt map[query.ID]int

	missed int
}

// NewQoS installs proportional completion-time guarantees on a JAWS
// scheduler and returns the handle. A zero cost means DefaultCost();
// stretch ≤ 0 defaults to 8 (a query may take 8× its isolated service
// time); horizon ≤ 0 defaults to 2 s of virtual time.
func NewQoS(inner *JAWS, cost CostModel, stretch float64, horizon time.Duration) *QoS {
	if cost == (CostModel{}) {
		cost = DefaultCost()
	}
	if stretch <= 0 {
		stretch = 8
	}
	if horizon <= 0 {
		horizon = 2 * time.Second
	}
	inner.qos = &qosPass{
		cost:       cost,
		stretch:    stretch,
		horizon:    horizon,
		deadlines:  make(map[query.ID]time.Duration),
		pendingCnt: make(map[query.ID]int),
	}
	inner.name += "+QoS"
	return &QoS{inner}
}

// DeadlineMisses reports how many queries had their final atom served
// after their completion-time bound (0 without QoS installed).
func (s *JAWS) DeadlineMisses() int {
	if s.qos == nil {
		return 0
	}
	return s.qos.missed
}

// admit fixes a query's deadline at its first sub-query, from the isolated
// service-time estimate of that sub-query's shape: atoms × T_b plus
// positions × T_m. It is intentionally the same back-of-envelope a
// deployment would compute at admission time.
func (p *qosPass) admit(sq *query.SubQuery) {
	qid := sq.Query.ID
	if _, ok := p.deadlines[qid]; !ok {
		atoms := 1 + len(sq.Footprint)
		est := time.Duration(atoms)*p.cost.Tb +
			time.Duration(float64(len(sq.Query.Points))*sq.Query.Kernel.CostWeight())*p.cost.Tm
		p.deadlines[qid] = sq.Query.Arrival + time.Duration(p.stretch*float64(est))
	}
	p.pendingCnt[qid]++
}

// selectUrgent is the urgent pre-pass: it collects, in key order, every
// atom whose earliest pending deadline lies within the horizon (leaving
// that deadline on the atom queue for the EDF sort) and reports whether
// there is any. Scores play no part in the EDF order; the caller fills
// them in for the atoms it serves.
func (s *JAWS) selectUrgent(now time.Duration) bool {
	for _, b := range s.q.buckets {
		for _, aq := range b.atoms {
			best := time.Duration(1<<62 - 1)
			for _, sq := range aq.subs {
				if d := s.qos.deadlines[sq.Query.ID]; d < best {
					best = d
				}
			}
			if best <= now+s.qos.horizon {
				aq.deadline = best
				s.sel = append(s.sel, aq)
				s.score = append(s.score, 0)
			}
		}
	}
	return len(s.sel) > 0
}

// retire books the served sub-queries; the deadline verdict lands once,
// when a query's final atom is served.
func (p *qosPass) retire(batches []Batch, now time.Duration) {
	for _, b := range batches {
		for _, sq := range b.SubQueries {
			qid := sq.Query.ID
			p.pendingCnt[qid]--
			if p.pendingCnt[qid] > 0 {
				continue
			}
			if now > p.deadlines[qid] {
				p.missed++
			}
			delete(p.deadlines, qid)
			delete(p.pendingCnt, qid)
		}
	}
}
