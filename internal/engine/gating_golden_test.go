package engine_test

import (
	"hash/fnv"
	"testing"
	"time"

	"jaws/internal/cache"
	"jaws/internal/engine"
	"jaws/internal/experiments"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/store"
)

// dispatchRecorder hashes the order and the virtual instants at which
// queries enter the workload queues. It embeds the concrete scheduler, so
// the engine still finds every optional interface on it.
type dispatchRecorder struct {
	*sched.JAWS
	last       query.ID
	dispatched int
	sum        uint64
}

func (r *dispatchRecorder) Enqueue(sq *query.SubQuery, now time.Duration) {
	if sq.Query.ID != r.last { // a query's sub-queries arrive in one run
		r.last = sq.Query.ID
		r.dispatched++
		h := fnv.New64a()
		var b [24]byte
		for i, v := range [3]uint64{r.sum, uint64(sq.Query.ID), uint64(now)} {
			for k := 0; k < 8; k++ {
				b[i*8+k] = byte(v >> (8 * k))
			}
		}
		h.Write(b[:])
		r.sum = h.Sum64()
	}
	r.JAWS.Enqueue(sq, now)
}

// TestJobAwareDispatchOrderRecorded pins what gated execution decides — the
// order and instants at which a JobAware run dispatches its queries, and
// the gating edges it admitted and refused — to the values recorded from
// the map-based job graph (commit 72a0c97), on the fig8 and deriv-chain
// traces at test scale. The job graph's layout may change; this may not.
func TestJobAwareDispatchOrderRecorded(t *testing.T) {
	for _, tc := range []struct {
		scenario           string
		dispatched         int
		sum                uint64
		admitted, rejected int
	}{
		{scenario: "fig8", dispatched: 328, sum: 0x91d069f4b011cd45, admitted: 92, rejected: 44},
		{scenario: "deriv-chain", dispatched: 267, sum: 0x7ea4a910cc95fb9c, admitted: 62, rejected: 96},
	} {
		s := experiments.TestScale()
		s.Scenario = tc.scenario
		st, err := store.Open(store.Config{Space: s.Space, Steps: s.Steps, SampleSide: s.SampleSide, Seed: s.Seed})
		if err != nil {
			t.Fatal(err)
		}
		c := cache.New(s.CacheAtoms, cache.NewLRUK(2, 0))
		rec := &dispatchRecorder{JAWS: sched.NewJAWS(sched.JAWSConfig{
			Cost: s.Cost, BatchSize: s.BatchSize, InitialAlpha: 0.5, Adaptive: true, Resident: c.Contains,
		})}
		e, err := engine.New(engine.Config{Store: st, Cache: c, Sched: rec, Cost: s.Cost, JobAware: true, RunLength: s.RunLength})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(experiments.FreshJobs(s, 1))
		if err != nil {
			t.Fatal(err)
		}
		if rep.GatingAdmitted == 0 || rep.GatingRejected == 0 {
			t.Fatalf("%s: %d edges admitted, %d refused: the trace does not exercise gating", tc.scenario, rep.GatingAdmitted, rep.GatingRejected)
		}
		if rec.dispatched != tc.dispatched || rec.sum != tc.sum || rep.GatingAdmitted != tc.admitted || rep.GatingRejected != tc.rejected {
			t.Errorf("%s: dispatched %d queries, order %#x, %d edges admitted, %d refused; recorded %d, %#x, %d, %d",
				tc.scenario, rec.dispatched, rec.sum, rep.GatingAdmitted, rep.GatingRejected,
				tc.dispatched, tc.sum, tc.admitted, tc.rejected)
		}
	}
}

// TestGateStateMatchesGraphDerivation holds the gate state dispatch stores
// in a query's frame to the derivation from the job graph it replaced, at
// every call the gate-aware policy makes (one per sub-query, at Enqueue)
// over the fig8 and deriv-chain traces, with jobs registered as they
// arrive and all up front. That the state then holds while the query is
// pending is TestGateStateFixedWhilePending's.
func TestGateStateMatchesGraphDerivation(t *testing.T) {
	spec, err := sched.ParsePolicySpec("gate-aware")
	if err != nil {
		t.Fatal(err)
	}
	for _, scenario := range []string{"fig8", "deriv-chain"} {
		for _, upfront := range []bool{false, true} {
			s := experiments.TestScale()
			s.Scenario = scenario
			st, err := store.Open(store.Config{Space: s.Space, Steps: s.Steps, SampleSide: s.SampleSide, Seed: s.Seed})
			if err != nil {
				t.Fatal(err)
			}
			c := cache.New(s.CacheAtoms, cache.NewLRUK(2, 0))
			js := sched.NewJAWS(sched.JAWSConfig{
				Cost: s.Cost, BatchSize: s.BatchSize, InitialAlpha: 0.5, Adaptive: true, Resident: c.Contains,
			})
			spec.Wrap(js)
			e, err := engine.New(engine.Config{
				Store: st, Cache: c, Sched: js, Cost: s.Cost, JobAware: true, DeclareUpfront: upfront, RunLength: s.RunLength,
			})
			if err != nil {
				t.Fatal(err)
			}
			calls, releasing := 0, 0
			js.SetGateSource(func(qid query.ID) sched.GateState {
				got, want := e.FrameGateState(qid), e.DerivedGateState(qid)
				if got != want && !t.Failed() {
					t.Errorf("%s, upfront %v: query %d reads %v from its frame, the job graph says %v", scenario, upfront, qid, got, want)
				}
				calls++
				if got == sched.GateReleasing {
					releasing++
				}
				return got
			})
			if _, err := e.Run(experiments.FreshJobs(s, 1)); err != nil {
				t.Fatal(err)
			}
			if calls == 0 || releasing == 0 || releasing == calls {
				t.Fatalf("%s, upfront %v: %d gate reads, %d releasing: the run does not exercise both states", scenario, upfront, calls, releasing)
			}
			t.Logf("%s, upfront %v: %d gate reads, %d releasing", scenario, upfront, calls, releasing)
		}
	}
}
