package oracle

import (
	"sort"
	"time"

	"jaws/internal/query"
	"jaws/internal/sched"
)

// The optional steps of the JAWS reference model (modelJAWS in oracle.go):
// the gate-aware score factor, the cross-step window predicate, the
// adaptive-batch post-step and the QoS earliest-deadline pre-step. Like
// the rest of the model they trade every optimization for legibility —
// naive rescans over the sorted queue list, one loop per decision rule,
// no code shared with internal/sched — and rely on the differential
// harness to certify bit-exact agreement with the production selector.

// SetGateSource implements GateAwareModel.
func (m *modelJAWS) SetGateSource(fn func(q query.ID) sched.GateState) { m.gateFn = fn }

// factor is the gate-aware score factor: Boost if any pending query on
// the atom is releasing, Discount if all are blocked, 1 otherwise (and
// always 1 without a gate-aware clause or a gate source).
func (m *modelJAWS) factor(q *modelQueue) float64 {
	if m.gate == nil || m.gateFn == nil {
		return 1
	}
	releasing := false
	blocked := len(q.subs) > 0
	for _, sq := range q.subs {
		switch m.gateFn(sq.Query.ID) {
		case sched.GateReleasing:
			releasing = true
		case sched.GateBlocked:
		default:
			blocked = false
		}
	}
	if releasing {
		return m.gate.Boost
	}
	if blocked {
		return m.gate.Discount
	}
	return 1
}

// stepsShareQuery reports whether any pending sub-query on step a belongs
// to the same query as one on step b — what qualifies step b to join a
// cross-step window anchored on a.
func (m *modelJAWS) stepsShareQuery(a, b int) bool {
	for _, qa := range m.q.ofStep(a) {
		for _, sqa := range qa.subs {
			for _, qb := range m.q.ofStep(b) {
				for _, sqb := range qb.subs {
					if sqa.Query.ID == sqb.Query.ID {
						return true
					}
				}
			}
		}
	}
	return false
}

// modelSteer is the adaptive-batch post-step: after p.Full consecutive
// truncating rounds the batch bound grows by p.Grow up to p.Max; after
// p.Idle consecutive fitting rounds it shrinks by p.Shrink down to p.Min.
// Empty rounds never reach it and leave the streaks untouched.
type modelSteer struct {
	p sched.AdaptiveBatchParams

	streakFull, streakIdle int
}

// next folds one round's truncation count into the streaks and returns
// the batch bound of the following round.
func (s *modelSteer) next(k, truncated int) int {
	if truncated > 0 {
		s.streakFull++
		s.streakIdle = 0
		if s.streakFull >= s.p.Full {
			s.streakFull = 0
			if k < s.p.Max {
				k += s.p.Grow
				if k > s.p.Max {
					k = s.p.Max
				}
			}
		}
		return k
	}
	s.streakIdle++
	s.streakFull = 0
	if s.streakIdle >= s.p.Idle {
		s.streakIdle = 0
		if k > s.p.Min {
			k -= s.p.Shrink
			if k < s.p.Min {
				k = s.p.Min
			}
		}
	}
	return k
}

// modelEDF is the QoS pre-step: each query's first enqueue fixes a
// deadline proportional to its estimated service time; whenever a pending
// atom carries a deadline within the look-ahead horizon, the urgent atoms
// are served earliest-deadline-first instead of by the two-level
// selection.
type modelEDF struct {
	stretch   float64
	horizon   time.Duration
	deadlines map[query.ID]time.Duration
	missed    int
}

// admit fixes the query's deadline on its first sub-query: arrival plus
// stretch × (atoms·T_b + weighted positions·T_m).
func (e *modelEDF) admit(sq *query.SubQuery, cost sched.CostModel) {
	if _, ok := e.deadlines[sq.Query.ID]; ok {
		return
	}
	atoms := 1 + len(sq.Footprint)
	est := time.Duration(atoms)*cost.Tb +
		time.Duration(float64(len(sq.Query.Points))*sq.Query.Kernel.CostWeight())*cost.Tm
	e.deadlines[sq.Query.ID] = sq.Query.Arrival + time.Duration(e.stretch*float64(est))
}

// urgent returns the atoms to serve ahead of the two-level selection, in
// execution order: those whose earliest pending deadline lies within the
// horizon, earliest deadline first (key on ties), at most k of them,
// executed in Morton order. Empty when no deadline binds yet.
func (e *modelEDF) urgent(l *queueList, k int, now time.Duration) []*modelQueue {
	earliest := make(map[*modelQueue]time.Duration)
	var urgent []*modelQueue
	for _, q := range l.queues {
		best := time.Duration(1<<62 - 1)
		for _, sq := range q.subs {
			if d := e.deadlines[sq.Query.ID]; d < best {
				best = d
			}
		}
		if best <= now+e.horizon {
			earliest[q] = best
			urgent = append(urgent, q)
		}
	}
	sort.SliceStable(urgent, func(i, j int) bool {
		if earliest[urgent[i]] != earliest[urgent[j]] {
			return earliest[urgent[i]] < earliest[urgent[j]]
		}
		return urgent[i].atom.Key() < urgent[j].atom.Key()
	})
	if len(urgent) > k {
		urgent = urgent[:k]
	}
	sort.Slice(urgent, func(i, j int) bool {
		return urgent[i].atom.Key() < urgent[j].atom.Key()
	})
	return urgent
}

// retire gives its verdict on every query the batches finished, one with
// no sub-query left in any queue: a miss when it was served after its
// deadline. Then the deadline goes (a query re-admitted later — a retried
// read — gets a fresh one, as in production).
func (e *modelEDF) retire(batches []sched.Batch, l *queueList, now time.Duration) {
	for _, b := range batches {
		for _, sq := range b.SubQueries {
			d, ok := e.deadlines[sq.Query.ID]
			if !ok || l.hasQuery(sq.Query.ID) {
				continue
			}
			if now > d {
				e.missed++
			}
			delete(e.deadlines, sq.Query.ID)
		}
	}
}

// DeadlineMisses counts the queries served after their deadline (0
// without QoS), as sched.JAWS's does.
func (m *modelJAWS) DeadlineMisses() int {
	if m.edf == nil {
		return 0
	}
	return m.edf.missed
}
