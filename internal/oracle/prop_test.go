package oracle

import (
	"testing"
	"time"

	"jaws/internal/sched"
	"jaws/internal/store"
)

// The quickcheck-style differential property: over seeded random op logs
// of enqueue/decision/α-update operations, the production schedulers'
// incremental structures (step buckets, memoized utilities, the
// zero-alloc decision path) must return byte-identical batch decisions AND
// utilities vs the naive rescan reference models. Diff installs a
// residency version source bumped per decision, so memos live across
// calls, as they do under the engine. A failing seed is shrunk to a
// locally minimal reproducer via the same machinery the suite uses.

var propCost = sched.CostModel{Tb: 41 * time.Millisecond, Tm: 20 * time.Microsecond}

// propTargets returns the target sweep for one seed: the α grid and
// batch sizes vary by seed so tie-break, truncation, memoized-U_t argmax
// (LifeRaft at α = 0) and adaptive-controller paths all get random-log
// coverage, and every tail-policy configuration plus the QoS decorator
// replays each log alongside the base algorithms.
func propTargets(seed int64) []Target {
	lrAlpha := Params{Cost: propCost, Alpha: float64(seed%11) / 10.0}
	lrZero := Params{Cost: propCost, Alpha: 0} // the argmax over memoized U_t
	jaws := Params{Cost: propCost, BatchSize: 1 + int(seed%4), Alpha: float64((seed*3)%11) / 10.0, Adaptive: seed%2 == 0}
	targets := []Target{
		StandardTarget(AlgoNoShare, Params{}),
		StandardTarget(AlgoLifeRaft, lrAlpha),
		StandardTarget(AlgoLifeRaft, lrZero),
		StandardTarget(AlgoJAWS, jaws),
	}
	// The tail policies, singly and stacked. Gate factors and spans vary
	// by seed; the adaptive-batch bounds are tight (min 1–2, max ≤ 6) so
	// random logs actually drive k into both rails.
	gate := &sched.GateAwareParams{Discount: 0.25 + float64(0.05*float64(seed%4)), Boost: 1.5 + float64(seed%3)}
	xstep := &sched.CrossStepParams{Span: 2 + int(seed%3)}
	adapt := &sched.AdaptiveBatchParams{
		Min: 1 + int(seed%2), Max: 3 + int(seed%4),
		Grow: 1 + int(seed%2), Shrink: 1,
		Full: 1 + int(seed%2), Idle: 1 + int(seed%3),
	}
	for _, spec := range []sched.PolicySpec{
		{GateAware: gate},
		{CrossStep: xstep},
		{AdaptiveBatch: adapt},
		{GateAware: gate, CrossStep: xstep},
		{GateAware: gate, CrossStep: xstep, AdaptiveBatch: adapt},
	} {
		p := jaws
		p.Policy = spec
		targets = append(targets, StandardTarget(AlgoJAWS, p))
	}
	// QoS in both regimes: a small stretch keeps deadlines inside the
	// horizon (urgent EDF path), a huge stretch with a tiny horizon never
	// finds one urgent (fallthrough through the QoS bookkeeping) — and
	// composed with gate-aware scoring and adaptive batch sizing, under a
	// stretch and horizon that interleave urgent rounds with two-level ones.
	urgent, never, composed := jaws, jaws, jaws
	urgent.QoSStretch, urgent.QoSHorizon = 1+float64(seed%8), time.Duration(seed%3+1)*time.Second
	never.QoSStretch, never.QoSHorizon = 1e9, time.Nanosecond
	composed.Policy = sched.PolicySpec{GateAware: gate, AdaptiveBatch: adapt}
	composed.QoSStretch, composed.QoSHorizon = 3+float64(seed%3), 5*time.Millisecond
	return append(targets,
		StandardTarget(AlgoJAWS, urgent),
		StandardTarget(AlgoJAWS, never),
		StandardTarget(AlgoJAWS, composed),
	)
}

func TestRandomOpLogsDifferential(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		log := GenLog(seed, GenConfig{})
		for _, tgt := range propTargets(seed) {
			if d := Diff(tgt, log); d != nil {
				min := Shrink(tgt, log)
				t.Errorf("seed %d %s: %v\nminimal reproducer (%d of %d ops):\n%s",
					seed, tgt.Name, d, len(min.Ops), len(log.Ops), FormatOps(min))
			}
		}
	}
}

// A smaller universe (one step, four atoms) piles every sub-query into a
// handful of queues: maximal contention, constant queue membership
// churn, many exact utility ties.
func TestRandomOpLogsHighContention(t *testing.T) {
	seeds := 15
	if testing.Short() {
		seeds = 4
	}
	cfg := GenConfig{Ops: 300, Steps: 1, AtomSide: 2, MaxPoints: 40}
	for seed := int64(100); seed < int64(100+seeds); seed++ {
		log := GenLog(seed, cfg)
		for _, tgt := range propTargets(seed) {
			if d := Diff(tgt, log); d != nil {
				min := Shrink(tgt, log)
				t.Errorf("seed %d %s: %v\nminimal reproducer (%d ops):\n%s",
					seed, tgt.Name, d, len(min.Ops), FormatOps(min))
			}
		}
	}
}

// GenLog is deterministic in its seed — the property that makes a
// failing seed a complete reproducer.
func TestGenLogDeterministic(t *testing.T) {
	a := GenLog(42, GenConfig{})
	b := GenLog(42, GenConfig{})
	if len(a.Ops) != len(b.Ops) {
		t.Fatalf("op counts differ: %d vs %d", len(a.Ops), len(b.Ops))
	}
	for i := range a.Ops {
		oa, ob := a.Ops[i], b.Ops[i]
		if oa.Kind != ob.Kind || oa.Now != ob.Now || oa.RT != ob.RT || oa.TP != ob.TP {
			t.Fatalf("op %d differs", i)
		}
		if oa.Kind == OpEnqueue && (oa.Sub.Atom != ob.Sub.Atom || len(oa.Sub.Points) != len(ob.Sub.Points)) {
			t.Fatalf("enqueue %d differs", i)
		}
		if oa.Kind == OpDecision && len(oa.Resident) != len(ob.Resident) {
			t.Fatalf("snapshot %d differs", i)
		}
	}
}

// wrongUtilitySched delegates decisions to a healthy LifeRaft but lies
// about utilities: the self-test that the per-decision utility
// comparison actually fires (a decisions-only diff would stay green).
type wrongUtilitySched struct {
	*sched.LifeRaft
}

func (s *wrongUtilitySched) AtomUtility(id store.AtomID) float64 {
	return s.LifeRaft.AtomUtility(id) * 2
}

func TestUtilityMismatchCaught(t *testing.T) {
	p := Params{Cost: propCost, Alpha: 0.3}
	buggy := Target{
		Name: "LifeRaft(2×-utility bug)",
		New: func(resident func(store.AtomID) bool) sched.Scheduler {
			return &wrongUtilitySched{sched.NewLifeRaft(p.Cost, p.Alpha, resident)}
		},
		NewModel: func() Model { return NewModel(AlgoLifeRaft, p) },
	}
	log := GenLog(7, GenConfig{Ops: 120})
	d := Diff(buggy, log)
	if d == nil {
		t.Fatal("utility comparison did not catch a scheduler reporting doubled utilities")
	}
	if d.Kind != "utility-mismatch" {
		t.Fatalf("divergence kind = %q, want utility-mismatch (detail: %s)", d.Kind, d.Detail)
	}
	min := Shrink(buggy, log)
	if Diff(buggy, min) == nil {
		t.Fatal("shrunk log no longer reproduces the utility divergence")
	}
	// Utilities are compared after the decision removes its pick, so the
	// minimum is two enqueues (one survives the take) plus the decision.
	if len(min.Ops) > 3 {
		t.Errorf("minimal reproducer has %d ops, want ≤ 3:\n%s", len(min.Ops), FormatOps(min))
	}
}
