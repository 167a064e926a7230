package sched_test

import (
	"testing"

	"jaws/internal/engine"
	"jaws/internal/experiments"
	"jaws/internal/oracle"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/system"
)

// warmStream is a recorded scheduler op stream shaped like the wall-clock
// benchmark's replay-warm workload: the deriv-chain trace on a system whose
// cache holds the whole 8-step store, recorded on the second run, when
// every atom is resident. gates holds the state each query was enqueued
// under.
type warmStream struct {
	log       *oracle.OpLog
	gates     map[query.ID]sched.GateState
	decisions int
	build     func() sched.Scheduler
}

// recordWarmStream opens the replay-warm system under policy, fills its
// cache with one run, and records the next.
func recordWarmStream(b *testing.B, policy string) *warmStream {
	s := experiments.DefaultScale()
	s.Scenario, s.Steps, s.TailPolicy = "deriv-chain", 8, policy
	s.CacheAtoms = s.Steps * s.Space.AtomsPerStep()
	sys, err := system.Open(s.Node(system.SchedJAWS2, s.BatchSize))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Run(experiments.FreshJobs(s, 1)); err != nil {
		b.Fatal(err)
	}
	rec := oracle.NewRecordingSched(sys.NewScheduler(), sys.Cache().Contains)
	e, err := engine.New(sys.EngineConfig(rec))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Run(experiments.FreshJobs(s, 1)); err != nil {
		b.Fatal(err)
	}
	w := &warmStream{log: rec.Log(), gates: make(map[query.ID]sched.GateState)}
	for _, op := range w.log.Ops {
		switch op.Kind {
		case oracle.OpEnqueue:
			w.gates[op.Sub.Query.ID] = op.Gate
		case oracle.OpDecision:
			w.decisions++
			for id, resident := range op.Resident {
				if !resident {
					b.Fatalf("atom %v not resident at decision %d: the recorded run is not warm", id, w.decisions)
				}
			}
		}
	}
	// The replayed scheduler is a fresh one of the system's, but for its
	// sources: every atom resident, a residency version that never moves
	// (the warm cache's does not), and the recorded gate states.
	w.build = func() sched.Scheduler {
		sc := sys.NewScheduler()
		js := sc.(*sched.JAWS)
		js.SetResidencyVersion(func() uint64 { return 1 })
		js.SetGateSource(func(q query.ID) sched.GateState { return w.gates[q] })
		return sc
	}
	return w
}

// replay drives sc through the stream; with check set it fails on the
// first decision that is not the recorded one.
func (w *warmStream) replay(b *testing.B, sc sched.Scheduler, check bool) {
	for i, op := range w.log.Ops {
		switch op.Kind {
		case oracle.OpEnqueue:
			sc.Enqueue(op.Sub, op.Now)
		case oracle.OpDecision:
			got := sc.NextBatch(op.Now)
			if !check {
				continue
			}
			if len(got) != len(op.Got) {
				b.Fatalf("op %d: %d batches, recorded %d", i, len(got), len(op.Got))
			}
			for j := range got {
				if got[j].Atom != op.Got[j].Atom || len(got[j].SubQueries) != len(op.Got[j].SubQueries) {
					b.Fatalf("op %d: batch %d is %v ×%d, recorded %v ×%d", i, j,
						got[j].Atom, len(got[j].SubQueries), op.Got[j].Atom, len(op.Got[j].SubQueries))
				}
			}
		case oracle.OpRunEnd:
			sc.OnRunEnd(op.RT, op.TP)
		}
	}
}

// BenchmarkDecideTailStack replays a replay-warm decision stream — every
// enqueue, decision and run-end report of one warm run, recorded under the
// same configuration — through a fresh scheduler per op (built off the
// clock), under plain JAWS and under the tail-policy stack replay-warm
// runs. It prices the
// scheduler's whole share of a warm replay; ns/decision divides it by the
// run's decisions.
func BenchmarkDecideTailStack(b *testing.B) {
	for _, cfg := range []struct{ name, policy string }{
		{"plain", ""},
		{"stack", "gate-aware;cross-step:span=2;adaptive-batch"},
	} {
		w := recordWarmStream(b, cfg.policy)
		w.replay(b, w.build(), true)
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sc := w.build()
				b.StartTimer()
				w.replay(b, sc, false)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*w.decisions), "ns/decision")
		})
	}
}
