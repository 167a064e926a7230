package sched

import (
	"testing"
	"time"

	"jaws/internal/query"
	"jaws/internal/store"
)

// The decision path must be allocation-free in steady state: once the
// freelists and decision buffers have warmed up, Enqueue and NextBatch
// perform zero heap allocations per round for every scheduler. This pins
// the incremental-index design (no per-decision sorting or map building);
// make check runs it with the rest of the package tests.

// allocWorkload returns a mixed set of sub-queries spanning several steps
// and atoms, some sharing an atom queue.
func allocWorkload() []*query.SubQuery {
	var sqs []*query.SubQuery
	qid := query.ID(1)
	for step := 0; step < 3; step++ {
		for a := uint32(0); a < 4; a++ {
			sqs = append(sqs, subQueryAt(qid, step, a, 0, 0, 10+int(a)*25))
			qid++
		}
	}
	// Contention: second sub-queries on two of the atoms.
	sqs = append(sqs, subQueryAt(qid, 1, 2, 0, 0, 40))
	qid++
	sqs = append(sqs, subQueryAt(qid, 2, 3, 0, 0, 15))
	return sqs
}

// derivAllocWorkload is the scenario-matrix shape: temporal-derivative
// chains fan one query out into sub-queries on the same atom across k
// adjacent steps, mixed with point sub-queries contending for the same
// atoms. Multi-step same-query fan-out is the pattern the deriv-chain
// scenario feeds the schedulers; it must be as allocation-free as the
// point path.
func derivAllocWorkload() []*query.SubQuery {
	var sqs []*query.SubQuery
	qid := query.ID(100)
	for a := uint32(0); a < 4; a++ {
		sqs = append(sqs, subQueryChain(qid, 0, a, 0, 0, 10+int(a)*25, 3)...)
		qid++
	}
	// Contention: point sub-queries on atoms the chains also touch.
	sqs = append(sqs, subQueryAt(qid, 1, 2, 0, 0, 40))
	qid++
	sqs = append(sqs, subQueryAt(qid, 2, 3, 0, 0, 15))
	return sqs
}

// subQueryChain pre-processes one derivative query chaining `chain`
// steps from `step` inside atom (i,j,k), returning all its sub-queries.
func subQueryChain(qid query.ID, step int, i, j, k uint32, n, chain int) []*query.SubQuery {
	base := subQueryAt(qid, step, i, j, k, n)
	q := *base.Query
	q.DerivSteps = chain
	sqs, err := query.PreProcess(&q, testSpace())
	if err != nil {
		panic(err)
	}
	if len(sqs) != chain {
		panic("subQueryChain positions spilled atoms")
	}
	return sqs
}

// drain enqueues the workload and takes decisions until the scheduler is
// empty — one steady-state round.
func drainRound(s Scheduler, sqs []*query.SubQuery) {
	for _, sq := range sqs {
		s.Enqueue(sq, 0)
	}
	now := time.Duration(0)
	for s.Pending() > 0 {
		if batches := s.NextBatch(now); len(batches) == 0 {
			panic("scheduler returned no batches with pending work")
		}
		now += time.Millisecond
	}
	// One more NextBatch so the last round's released queues are recycled
	// inside the measured window, not carried into the next one.
	s.NextBatch(now)
}

func TestDecisionPathZeroAllocs(t *testing.T) {
	resident := func(id store.AtomID) bool { return id.Step == 0 }
	version := func() uint64 { return 7 }
	cases := []struct {
		name  string
		build func() Scheduler
	}{
		{"NoShare", func() Scheduler { return NewNoShare() }},
		{"LifeRaft-alpha0", func() Scheduler {
			s := NewLifeRaft(testCost, 0, resident)
			s.SetResidencyVersion(version)
			return s
		}},
		{"LifeRaft-alpha0.5", func() Scheduler {
			s := NewLifeRaft(testCost, 0.5, resident)
			s.SetResidencyVersion(version)
			return s
		}},
		{"JAWS", func() Scheduler {
			s := NewJAWS(JAWSConfig{Cost: testCost, BatchSize: 3, Resident: resident})
			s.SetResidencyVersion(version)
			return s
		}},
		{"JAWS-adaptive", func() Scheduler {
			s := NewJAWS(JAWSConfig{Cost: testCost, BatchSize: 2, InitialAlpha: 0.5, Adaptive: true, Resident: resident})
			s.SetResidencyVersion(version)
			return s
		}},
		{"JAWS-noversion", func() Scheduler {
			// No version source: every call starts a new memo epoch, still
			// zero allocs.
			return NewJAWS(JAWSConfig{Cost: testCost, BatchSize: 3, Resident: resident})
		}},
		{"JAWS+QoS-urgent", func() Scheduler {
			inner := NewJAWS(JAWSConfig{Cost: testCost, BatchSize: 3, Resident: resident})
			inner.SetResidencyVersion(version)
			// Default stretch: deadlines land inside the horizon, so the
			// urgent EDF path is the one measured.
			NewQoS(inner, testCost, 0, 0)
			return inner
		}},
		{"JAWS+QoS-fallthrough", func() Scheduler {
			inner := NewJAWS(JAWSConfig{Cost: testCost, BatchSize: 3, Resident: resident})
			inner.SetResidencyVersion(version)
			// Enormous stretch: nothing is ever urgent, so the inner JAWS
			// path runs through the QoS bookkeeping.
			NewQoS(inner, testCost, 1e9, time.Nanosecond)
			return inner
		}},
		{"JAWS+gate-aware", func() Scheduler {
			inner := NewJAWS(JAWSConfig{Cost: testCost, BatchSize: 3, Resident: resident})
			inner.SetResidencyVersion(version)
			spec := PolicySpec{GateAware: &GateAwareParams{Discount: 0.25, Boost: 2}}
			s := spec.Wrap(inner)
			// A non-trivial gate source: states vary by query without
			// allocating (the closure is installed once, outside the
			// measured rounds).
			s.(GateAware).SetGateSource(func(q query.ID) GateState {
				switch q % 3 {
				case 0:
					return GateBlocked
				case 1:
					return GateReleasing
				}
				return GateFree
			})
			return s
		}},
		{"JAWS+cross-step", func() Scheduler {
			inner := NewJAWS(JAWSConfig{Cost: testCost, BatchSize: 3, Resident: resident})
			inner.SetResidencyVersion(version)
			return PolicySpec{CrossStep: &CrossStepParams{Span: 3}}.Wrap(inner)
		}},
		{"JAWS+adaptive-batch", func() Scheduler {
			inner := NewJAWS(JAWSConfig{Cost: testCost, BatchSize: 2, Resident: resident})
			inner.SetResidencyVersion(version)
			// Tight bounds with immediate reactions so the measured rounds
			// actually resize k.
			return PolicySpec{AdaptiveBatch: &AdaptiveBatchParams{
				Min: 1, Max: 4, Grow: 1, Shrink: 1, Full: 1, Idle: 1,
			}}.Wrap(inner)
		}},
		{"JAWS+full-stack", func() Scheduler {
			inner := NewJAWS(JAWSConfig{Cost: testCost, BatchSize: 2, Resident: resident})
			inner.SetResidencyVersion(version)
			spec := PolicySpec{
				GateAware:     &GateAwareParams{Discount: 0.5, Boost: 2},
				CrossStep:     &CrossStepParams{Span: 2},
				AdaptiveBatch: &AdaptiveBatchParams{Min: 1, Max: 4, Grow: 1, Shrink: 1, Full: 1, Idle: 2},
			}
			s := spec.Wrap(inner)
			s.(GateAware).SetGateSource(func(q query.ID) GateState {
				if q%4 == 0 {
					return GateReleasing
				}
				return GateFree
			})
			return s
		}},
		{"JAWS+QoS+gate-aware+adaptive-batch", func() Scheduler {
			// QoS composed with tail policies: deadlines land mid-drain, so
			// each measured round starts with fall-through decisions (one of
			// them truncating, k grows) and ends with urgent ones (k shrinks).
			inner := NewJAWS(JAWSConfig{Cost: testCost, BatchSize: 1, Resident: resident})
			inner.SetResidencyVersion(version)
			PolicySpec{
				GateAware:     &GateAwareParams{Discount: 0.5, Boost: 2},
				AdaptiveBatch: &AdaptiveBatchParams{Min: 1, Max: 4, Grow: 1, Shrink: 1, Full: 1, Idle: 2},
			}.Wrap(inner)
			inner.SetGateSource(func(q query.ID) GateState {
				if q%4 == 0 {
					return GateReleasing
				}
				return GateFree
			})
			NewQoS(inner, testCost, 0.1, time.Millisecond)
			return inner
		}},
	}
	workloads := []struct {
		name string
		sqs  []*query.SubQuery
	}{
		{"point", allocWorkload()},
		{"deriv", derivAllocWorkload()},
	}
	for _, wl := range workloads {
		for _, tc := range cases {
			t.Run(wl.name+"/"+tc.name, func(t *testing.T) {
				s := tc.build()
				// Warm the freelists and decision buffers to steady state.
				for i := 0; i < 3; i++ {
					drainRound(s, wl.sqs)
				}
				if avg := testing.AllocsPerRun(10, func() { drainRound(s, wl.sqs) }); avg != 0 {
					t.Fatalf("%s: %.1f allocs per enqueue+drain round, want 0", tc.name, avg)
				}
			})
		}
	}
}
