package oracle

import (
	"strings"
	"testing"
	"time"

	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/store"
)

// minUESched is a deliberately broken LifeRaft: a utility-ordering bug
// makes it serve the atom with the LOWEST aged metric. The harness
// self-test plants it as the production side of a Target and requires the
// differential machinery to catch it and shrink the reproducer.
type minUESched struct {
	cost     sched.CostModel
	alpha    float64
	resident func(store.AtomID) bool
	q        queueList
}

func (s *minUESched) Name() string                                  { return "LifeRaft(min-ue bug)" }
func (s *minUESched) Enqueue(sq *query.SubQuery, now time.Duration) { s.q.add(sq, now) }
func (s *minUESched) Pending() int                                  { return s.q.subs }
func (s *minUESched) OnRunEnd(rt, tp float64)                       {}
func (s *minUESched) Alpha() float64                                { return s.alpha }

func (s *minUESched) NextBatch(now time.Duration) []sched.Batch {
	var worst *modelQueue
	worstScore := 0.0
	for _, q := range s.q.queues {
		if score := ue(s.cost, q, s.alpha, now, s.resident); worst == nil || score < worstScore {
			worst, worstScore = q, score
		}
	}
	if worst == nil {
		return nil
	}
	return []sched.Batch{s.q.take(worst)}
}

// TestInjectedBugCaughtAndShrunk captures a real LifeRaft run, swaps the
// production side for the min-U_e mutant, and requires Diff to flag the
// divergence and Shrink to cut the log to a minimal reproducer — two
// enqueues building two unequal queues plus the one decision that
// exposes the flipped ordering.
func TestInjectedBugCaughtAndShrunk(t *testing.T) {
	cfg, p := SuiteParams(AlgoLifeRaft, 1)
	c, err := Run(cfg)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	buggy := Target{
		Name: "LifeRaft(min-ue bug)",
		New: func(resident func(store.AtomID) bool) sched.Scheduler {
			return &minUESched{cost: p.Cost, alpha: p.Alpha, resident: resident}
		},
		NewModel: func() Model { return NewModel(AlgoLifeRaft, p) },
	}

	d := Diff(buggy, c.Log)
	if d == nil {
		t.Fatal("differential harness did not catch the injected utility-ordering bug")
	}
	t.Logf("caught: %v", d)

	shrunk := Shrink(buggy, c.Log)
	if got := Diff(buggy, shrunk); got == nil {
		t.Fatal("shrunk log no longer reproduces the divergence")
	}
	t.Logf("shrunk %d ops to %d", len(c.Log.Ops), len(shrunk.Ops))
	if len(shrunk.Ops) > 3 {
		t.Errorf("minimal reproducer has %d ops, want ≤ 3 (two enqueues + one decision)", len(shrunk.Ops))
	}
	var enq, dec int
	for _, op := range shrunk.Ops {
		switch op.Kind {
		case OpEnqueue:
			enq++
		case OpDecision:
			dec++
		}
		if op.Got != nil {
			t.Error("shrunk log still carries recorded answers")
		}
	}
	if dec != 1 {
		t.Errorf("minimal reproducer has %d decisions, want 1", dec)
	}
	if enq < 2 {
		t.Errorf("minimal reproducer has %d enqueues; one queue cannot expose an ordering bug", enq)
	}

	// The control arm: the same machinery over the healthy scheduler must
	// stay silent, and Shrink on a non-diverging log must be the identity
	// (minus recordings).
	healthy := StandardTarget(AlgoLifeRaft, p)
	if d := Diff(healthy, c.Log); d != nil {
		t.Fatalf("healthy LifeRaft diverges: %v", d)
	}
	if kept := Shrink(healthy, c.Log); len(kept.Ops) != len(c.Log.Ops) {
		t.Errorf("Shrink on a passing log dropped ops: %d → %d", len(c.Log.Ops), len(kept.Ops))
	}
}

// TestDivergenceReporting pins the shape of the divergence report
// TestDifferentialSuite prints.
func TestDivergenceReporting(t *testing.T) {
	d := &Divergence{Target: "JAWS", OpIndex: 7, Kind: "model-vs-real", Detail: "model [], real [s1/a9×1]"}
	msg := d.Error()
	for _, want := range []string{"JAWS", "op 7", "model-vs-real", "s1/a9×1"} {
		if !strings.Contains(msg, want) {
			t.Errorf("divergence report %q missing %q", msg, want)
		}
	}
}
