package engine_test

import (
	"testing"
	"time"

	"jaws/internal/engine"
	"jaws/internal/experiments"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/system"
)

// gateContract holds the engine to its side of sched.GateAware: a
// scheduler reads a query's gate state once, when it enqueues a
// sub-query, so the source must give that query the same state for as
// long as any of its sub-queries is pending. The wrapper reads the
// engine's source at every Enqueue, whatever the policy installed, and
// again for every pending query at every decision. It embeds the concrete
// scheduler, so the engine still finds every optional interface on it.
type gateContract struct {
	*sched.JAWS
	t     *testing.T
	label string

	src     func(query.ID) sched.GateState
	at      map[query.ID]sched.GateState // the state read at enqueue
	pending map[query.ID]int
	checks  int
	live    int // enqueues under a state other than GateFree
}

func newGateContract(t *testing.T, label string, inner sched.Scheduler) *gateContract {
	return &gateContract{
		JAWS: inner.(*sched.JAWS), t: t, label: label,
		at: make(map[query.ID]sched.GateState), pending: make(map[query.ID]int),
	}
}

func (g *gateContract) SetGateSource(fn func(query.ID) sched.GateState) {
	g.src = fn
	g.JAWS.SetGateSource(fn)
}

func (g *gateContract) Enqueue(sq *query.SubQuery, now time.Duration) {
	id := sq.Query.ID
	st := g.src(id)
	if prev, ok := g.at[id]; ok && prev != st {
		g.t.Errorf("%s: query %d enqueued under %v, then a sub-query under %v", g.label, id, prev, st)
	}
	g.at[id] = st
	g.pending[id]++
	if st != sched.GateFree {
		g.live++
	}
	g.JAWS.Enqueue(sq, now)
}

func (g *gateContract) NextBatch(now time.Duration) []sched.Batch {
	for id := range g.pending {
		g.checks++
		if st := g.src(id); st != g.at[id] {
			g.t.Errorf("%s @%v: query %d was enqueued under %v, the engine now says %v", g.label, now, id, g.at[id], st)
		}
	}
	got := g.JAWS.NextBatch(now)
	for _, b := range got {
		for _, sq := range b.SubQueries {
			id := sq.Query.ID
			if g.pending[id]--; g.pending[id] == 0 {
				delete(g.pending, id)
				delete(g.at, id)
			}
		}
	}
	return got
}

// TestGateStateFixedWhilePending runs the fig8-tail and deriv-chain-tail
// artifact configurations (the config records of BENCH_fig8-tail.json and
// BENCH_deriv-chain-tail.json) through Engine.Run, and the first through a Session as well, with the gate-contract wrapper around the scheduler: a
// change that moves a dispatched query's gate state before it completes
// fails here, named by query, rather than as a moved artifact byte.
func TestGateStateFixedWhilePending(t *testing.T) {
	for _, tc := range []struct {
		name, scenario, policy string
		session                bool
	}{
		{"fig8-tail", "fig8", "gate-aware:boost=1.2,discount=0.8", false},
		{"deriv-chain-tail", "deriv-chain", "cross-step:span=2;adaptive-batch", false},
		{"fig8-tail/session", "fig8", "gate-aware:boost=1.2,discount=0.8", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := experiments.DefaultScale()
			s.Scenario, s.TailPolicy = tc.scenario, tc.policy
			sys, err := system.Open(s.Node(system.SchedJAWS2, s.BatchSize))
			if err != nil {
				t.Fatal(err)
			}
			g := newGateContract(t, tc.name, sys.NewScheduler())
			jobs := experiments.FreshJobs(s, 1)
			queries := 0
			for _, j := range jobs {
				queries += len(j.Queries)
			}
			completed := 0
			if tc.session {
				sess, err := engine.NewSession(sys.EngineConfig(g))
				if err != nil {
					t.Fatal(err)
				}
				if err := sess.Submit(jobs...); err != nil {
					t.Fatal(err)
				}
				for completed < queries {
					r, ok := <-sess.Results()
					if !ok {
						t.Fatalf("result stream closed after %d of %d queries: %v", completed, queries, sess.Err())
					}
					r.Release()
					completed++
				}
				sess.Close()
			} else {
				e, err := engine.New(sys.EngineConfig(g))
				if err != nil {
					t.Fatal(err)
				}
				rep, err := e.Run(jobs)
				if err != nil {
					t.Fatal(err)
				}
				completed = rep.Completed
			}
			if completed != queries {
				t.Fatalf("%d of %d queries completed", completed, queries)
			}
			if g.checks == 0 || g.live == 0 {
				t.Fatalf("%d pending-query checks, %d enqueues under a live gate state: the run does not exercise the contract", g.checks, g.live)
			}
			t.Logf("%d queries, %d enqueues under a live gate state, %d pending-query checks", queries, g.live, g.checks)
		})
	}
}
