package sched

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"jaws/internal/query"
	"jaws/internal/store"
)

// --- spec grammar ---------------------------------------------------------

func TestParsePolicySpec(t *testing.T) {
	cases := []struct {
		in   string
		want PolicySpec
	}{
		{"", PolicySpec{}},
		{";;", PolicySpec{}},
		{"gate-aware", PolicySpec{GateAware: &GateAwareParams{Discount: 0.25, Boost: 2}}},
		{"gate-aware:discount=0.5", PolicySpec{GateAware: &GateAwareParams{Discount: 0.5, Boost: 2}}},
		{"gate-aware:boost=3,discount=1", PolicySpec{GateAware: &GateAwareParams{Discount: 1, Boost: 3}}},
		{"cross-step", PolicySpec{CrossStep: &CrossStepParams{Span: 2}}},
		{"cross-step:span=8", PolicySpec{CrossStep: &CrossStepParams{Span: 8}}},
		{"adaptive-batch", PolicySpec{AdaptiveBatch: &AdaptiveBatchParams{Min: 4, Max: 32, Grow: 2, Shrink: 1, Full: 2, Idle: 8}}},
		{"adaptive-batch:min=1,max=4,grow=1,shrink=2,full=3,idle=5",
			PolicySpec{AdaptiveBatch: &AdaptiveBatchParams{Min: 1, Max: 4, Grow: 1, Shrink: 2, Full: 3, Idle: 5}}},
		// Clause order is irrelevant; whitespace is trimmed.
		{" adaptive-batch ; gate-aware : discount = 0.5 , boost = 4 ",
			PolicySpec{
				GateAware:     &GateAwareParams{Discount: 0.5, Boost: 4},
				AdaptiveBatch: &AdaptiveBatchParams{Min: 4, Max: 32, Grow: 2, Shrink: 1, Full: 2, Idle: 8},
			}},
	}
	for _, tc := range cases {
		got, err := ParsePolicySpec(tc.in)
		if err != nil {
			t.Errorf("ParsePolicySpec(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParsePolicySpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		// Canonical rendering must parse back to the identical spec.
		again, err := ParsePolicySpec(got.String())
		if err != nil {
			t.Errorf("reparse of %q's rendering %q: %v", tc.in, got.String(), err)
			continue
		}
		if !reflect.DeepEqual(got, again) {
			t.Errorf("%q round trip changed: %+v -> %q -> %+v", tc.in, got, got.String(), again)
		}
	}
}

func TestParsePolicySpecErrors(t *testing.T) {
	bad := []string{
		"nope",
		"gate-aware:discount=0",      // out of (0, 1]
		"gate-aware:discount=1.5",    // out of (0, 1]
		"gate-aware:boost=0.5",       // < 1
		"gate-aware:boost=1e7",       // > 1e6
		"gate-aware:discount=x",      // not a number
		"gate-aware:frob=1",          // unknown parameter
		"gate-aware;gate-aware",      // duplicate clause
		"cross-step:span=0",          // < 1
		"cross-step:span=9",          // > 8
		"adaptive-batch:min=0",       // < 1
		"adaptive-batch:min=8,max=4", // max < min
		"adaptive-batch:max=2048",    // > 1024
		"adaptive-batch:grow=0",
		"adaptive-batch:shrink=0",
		"adaptive-batch:full=0",
		"adaptive-batch:idle=0",
		"adaptive-batch:min=4,min=4", // duplicate parameter
		"gate-aware:discount",        // not key=value
		"gate-aware:,",               // empty parameter
	}
	for _, in := range bad {
		if spec, err := ParsePolicySpec(in); err == nil {
			t.Errorf("ParsePolicySpec(%q) = %+v, want error", in, spec)
		}
	}
}

func TestPolicySpecEmpty(t *testing.T) {
	if !(PolicySpec{}).Empty() {
		t.Error("zero spec is not Empty")
	}
	if (PolicySpec{CrossStep: &CrossStepParams{Span: 2}}).Empty() {
		t.Error("cross-step spec reports Empty")
	}
	if got := (PolicySpec{}).String(); got != "" {
		t.Errorf("empty spec renders %q, want \"\"", got)
	}
}

// --- composition ----------------------------------------------------------

func TestWrapComposition(t *testing.T) {
	build := func() *JAWS {
		return NewJAWS(JAWSConfig{Cost: testCost, BatchSize: 3, Resident: func(id store.AtomID) bool { return false }})
	}
	gate := &GateAwareParams{Discount: 0.25, Boost: 2}
	adapt := &AdaptiveBatchParams{Min: 1, Max: 4, Grow: 1, Shrink: 1, Full: 1, Idle: 1}
	cases := []struct {
		spec PolicySpec
		name string
	}{
		{PolicySpec{}, "JAWS"},
		{PolicySpec{GateAware: gate}, "JAWS+gate-aware"},
		{PolicySpec{CrossStep: &CrossStepParams{Span: 2}}, "JAWS+cross-step"},
		{PolicySpec{AdaptiveBatch: adapt}, "JAWS+adaptive-batch"},
		{PolicySpec{GateAware: gate, CrossStep: &CrossStepParams{Span: 2}, AdaptiveBatch: adapt},
			"JAWS+gate-aware+cross-step+adaptive-batch"},
	}
	for _, tc := range cases {
		// Wrap configures the selector it is handed: no second scheduler
		// type exists, so the stack is gate-aware pluggable by construction.
		inner := build()
		s := tc.spec.Wrap(inner)
		if s != Scheduler(inner) {
			t.Errorf("%q wraps to a new %T, want the configured inner", tc.spec, s)
		}
		if s.Name() != tc.name {
			t.Errorf("%q names %q, want %q", tc.spec, s.Name(), tc.name)
		}
	}

	// QoS composes with the tail policies in either installation order,
	// under one canonical name.
	spec := PolicySpec{GateAware: gate, AdaptiveBatch: adapt}
	a := build()
	spec.Wrap(a)
	NewQoS(a, testCost, 4, time.Second)
	b := build()
	NewQoS(b, testCost, 4, time.Second)
	spec.Wrap(b)
	for _, s := range []*JAWS{a, b} {
		if want := "JAWS+gate-aware+adaptive-batch+QoS"; s.Name() != want {
			t.Errorf("composed name %q, want %q", s.Name(), want)
		}
		if s.gate == nil || s.steer == nil || s.qos == nil {
			t.Errorf("%s: a hook went missing: gate=%v steer=%v qos=%v", s.Name(), s.gate, s.steer, s.qos)
		}
	}
	plain := build()
	NewQoS(plain, testCost, 4, time.Second)
	if plain.Name() != "JAWS+QoS" {
		t.Errorf("QoS alone names %q, want JAWS+QoS", plain.Name())
	}
}

// --- selector hook decision rules -----------------------------------------

// policyWorkload spreads contention over three steps and four atoms per
// step, with second sub-queries on two atoms.
func policyWorkload(base query.ID) []*query.SubQuery {
	var sqs []*query.SubQuery
	qid := base
	for step := 0; step < 3; step++ {
		for a := uint32(0); a < 4; a++ {
			sqs = append(sqs, subQueryAt(qid, step, a, 0, 0, 10+int(a)*25))
			qid++
		}
	}
	sqs = append(sqs, subQueryAt(qid, 1, 2, 0, 0, 40))
	qid++
	sqs = append(sqs, subQueryAt(qid, 2, 3, 0, 0, 15))
	return sqs
}

// describeDecision flattens a decision into a comparable string.
func describeDecision(batches []Batch) string {
	out := ""
	for _, b := range batches {
		out += b.Atom.String() + "["
		for _, sq := range b.SubQueries {
			out += fmt.Sprintf("%d ", sq.Query.ID)
		}
		out += "] "
	}
	return out
}

// TestIdentityHooksEquivalentToJAWS pins the degenerate setting of every
// selector hook: installed but inert, it must leave each decision and each
// α bit-identical to plain JAWS — the gate factor ×1.0 is IEEE-exact, a
// span-1 window is the anchor bucket, a steer with min = max = k never
// moves k, and a pre-pass that finds nothing urgent falls through — so
// any drift here is a selection-rule bug, not a policy effect.
func TestIdentityHooksEquivalentToJAWS(t *testing.T) {
	const k = 2
	build := func() *JAWS {
		return NewJAWS(JAWSConfig{Cost: testCost, BatchSize: k, InitialAlpha: 0.5, Adaptive: true,
			Resident: func(id store.AtomID) bool { return id.Step == 0 }})
	}
	cases := []struct {
		name    string
		install func(*JAWS)
	}{
		{"cross-step span 1", func(s *JAWS) { PolicySpec{CrossStep: &CrossStepParams{Span: 1}}.Wrap(s) }},
		{"gate-aware without a source", func(s *JAWS) {
			PolicySpec{GateAware: &GateAwareParams{Discount: 0.25, Boost: 4}}.Wrap(s)
		}},
		{"adaptive-batch min=max=k", func(s *JAWS) {
			PolicySpec{AdaptiveBatch: &AdaptiveBatchParams{Min: k, Max: k, Grow: 1, Shrink: 1, Full: 1, Idle: 1}}.Wrap(s)
		}},
		{"QoS with no deadline inside the horizon", func(s *JAWS) { NewQoS(s, testCost, 1e9, time.Nanosecond) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain, hooked := build(), build()
			tc.install(hooked)
			for round := 0; round < 3; round++ {
				for _, sq := range policyWorkload(query.ID(1 + round*100)) {
					plain.Enqueue(sq, 0)
				}
				for _, sq := range policyWorkload(query.ID(1 + round*100)) {
					hooked.Enqueue(sq, 0)
				}
				now := time.Duration(round) * time.Second
				for plain.Pending() > 0 || hooked.Pending() > 0 {
					a := describeDecision(plain.NextBatch(now))
					b := describeDecision(hooked.NextBatch(now))
					if a != b {
						t.Fatalf("round %d @%v: decisions diverge:\n JAWS:   %s\n hooked: %s", round, now, a, b)
					}
					now += 50 * time.Millisecond
				}
				plain.OnRunEnd(1.5, 2.0)
				hooked.OnRunEnd(1.5, 2.0)
				if pa, ha := plain.Alpha(), hooked.Alpha(); pa != ha {
					t.Fatalf("round %d: alpha diverged: %g vs %g", round, pa, ha)
				}
			}
			if hooked.k != k {
				t.Fatalf("identity hook moved k to %d", hooked.k)
			}
		})
	}
}

// TestGateFactorSteering checks the admission-order rules end to end: a
// boosted (gate-releasing) atom wins the decision it would otherwise lose,
// and a discounted (all-blocked) atom loses the decision it would
// otherwise win.
func TestGateFactorSteering(t *testing.T) {
	build := func(fn func(query.ID) GateState) *JAWS {
		s := NewJAWS(JAWSConfig{Cost: testCost, BatchSize: 1,
			Resident: func(id store.AtomID) bool { return false }})
		PolicySpec{GateAware: &GateAwareParams{Discount: 0.25, Boost: 4}}.Wrap(s)
		s.SetGateSource(fn)
		return s
	}
	// Two atoms on one step: atomB carries the heavier workload (two
	// sub-queries), so undecorated JAWS serves it first.
	atomA := subQueryAt(1, 0, 0, 0, 0, 30).Atom
	atomB := subQueryAt(2, 0, 1, 0, 0, 30).Atom
	load := func(s *JAWS) {
		s.Enqueue(subQueryAt(1, 0, 0, 0, 0, 30), 0) // atomA: query 1
		s.Enqueue(subQueryAt(2, 0, 1, 0, 0, 30), 0) // atomB: queries 2, 3
		s.Enqueue(subQueryAt(3, 0, 1, 0, 0, 30), 0)
	}

	free := build(func(q query.ID) GateState { return GateFree })
	load(free)
	if got := free.NextBatch(0); len(got) != 1 || got[0].Atom != atomB {
		t.Fatalf("gate-free baseline served %v, want the contended atom %v", got, atomB)
	}

	// Boost: query 1's completion releases a successor; its atom must now
	// win the race despite the lighter workload.
	boost := build(func(q query.ID) GateState {
		if q == 1 {
			return GateReleasing
		}
		return GateFree
	})
	load(boost)
	if got := boost.NextBatch(0); len(got) != 1 || got[0].Atom != atomA {
		t.Fatalf("boosted atom lost the decision: %v", got)
	}

	// Discount: both of atomB's queries are blocked upstream; the free
	// atom must win even against the heavier workload.
	disc := build(func(q query.ID) GateState {
		if q == 2 || q == 3 {
			return GateBlocked
		}
		return GateFree
	})
	load(disc)
	if got := disc.NextBatch(0); len(got) != 1 || got[0].Atom != atomA {
		t.Fatalf("discounted atom still won the decision: %v", got)
	}

	// Mixed: one blocked + one free query on the atom is NOT all-blocked;
	// no discount applies and the contended atom wins as in the baseline.
	mixed := build(func(q query.ID) GateState {
		if q == 2 {
			return GateBlocked
		}
		return GateFree
	})
	load(mixed)
	if got := mixed.NextBatch(0); len(got) != 1 || got[0].Atom != atomB {
		t.Fatalf("half-blocked atom was discounted: %v", got)
	}
}

// TestCrossStepWindow checks that a span-2 window coalesces adjacent step
// buckets into one decision when the contiguous pair outscores any single
// bucket, and that non-adjacent steps never join a window.
func TestCrossStepWindow(t *testing.T) {
	build := func(span int) *JAWS {
		s := NewJAWS(JAWSConfig{Cost: testCost, BatchSize: 8,
			Resident: func(id store.AtomID) bool { return false }})
		PolicySpec{CrossStep: &CrossStepParams{Span: span}}.Wrap(s)
		return s
	}
	// A derivative-chain shape: query 1 fans heavy sub-queries over steps
	// 0 and 1, a light unrelated query sits on step 1, and a weak
	// straggler on the non-adjacent step 3. The anchor is step 0 (the
	// highest bucket mean), step 1 shares query 1 with it, so the span-2
	// window serves the whole chain in one decision: both heavy atoms
	// exceed the window mean, the light atom does not.
	load := func(s *JAWS) {
		s.Enqueue(subQueryAt(1, 0, 0, 0, 0, 100), 0)
		s.Enqueue(subQueryAt(1, 1, 0, 0, 0, 100), 0)
		s.Enqueue(subQueryAt(3, 1, 1, 0, 0, 10), 0)
		s.Enqueue(subQueryAt(2, 3, 2, 0, 0, 5), 0)
	}

	s := build(2)
	load(s)
	got := s.NextBatch(0)
	steps := map[int]bool{}
	for _, b := range got {
		steps[b.Atom.Step] = true
	}
	if !steps[0] || !steps[1] {
		t.Fatalf("span-2 window served steps %v, want both chain steps {0, 1}", steps)
	}
	if steps[3] {
		t.Fatalf("non-adjacent step 3 joined the window: %v", got)
	}
	if len(got) != 2 {
		t.Fatalf("span-2 decision served %d atoms, want the 2 chain atoms", len(got))
	}

	// Span 1 serves the chain one step per decision.
	s1 := build(1)
	load(s1)
	if got := s1.NextBatch(0); len(got) != 1 || got[0].Atom.Step != 0 {
		t.Fatalf("span-1 decision = %v, want the single step-0 chain atom", got)
	}

	// An adjacent bucket with no query in common gains nothing from
	// co-scheduling: the window stays at the anchor.
	s2 := build(2)
	s2.Enqueue(subQueryAt(1, 0, 0, 0, 0, 100), 0)
	s2.Enqueue(subQueryAt(4, 1, 1, 0, 0, 100), 0)
	s2.Enqueue(subQueryAt(3, 1, 2, 0, 0, 10), 0)
	if got := s2.NextBatch(0); len(got) != 1 || got[0].Atom.Step != 0 {
		t.Fatalf("unshared adjacent step joined the window: %v", got)
	}
}

// --- adaptive-batch behavior ----------------------------------------------

// adaptiveJAWS builds a JAWS with batch size k under an adaptive-batch
// clause.
func adaptiveJAWS(k int, p AdaptiveBatchParams) *JAWS {
	s := NewJAWS(JAWSConfig{Cost: testCost, BatchSize: k,
		Resident: func(id store.AtomID) bool { return false }})
	PolicySpec{AdaptiveBatch: &p}.Wrap(s)
	return s
}

func TestAdaptiveBatchResizing(t *testing.T) {
	// Idle is large so the growth phase is not undone by the fitting
	// rounds at the tail of each drain.
	s := adaptiveJAWS(1, AdaptiveBatchParams{Min: 1, Max: 3, Grow: 1, Shrink: 1, Full: 1, Idle: 100})
	if got := s.k; got != 1 {
		t.Fatalf("initial k = %d, want 1 (clamped into [1, 3])", got)
	}

	// Sustained truncation pressure: seven heavy atoms and one light one on
	// a single step, so every early decision has far more above-mean
	// candidates than k and drops the rest — k must climb to Max.
	s.SetExplain(true)
	passOvers := 0
	for i := 0; i < 3; i++ {
		qid := query.ID(1 + i*10)
		for a := uint32(0); a < 7; a++ {
			s.Enqueue(subQueryAt(qid, 0, a, 0, 0, 100), 0)
			qid++
		}
		s.Enqueue(subQueryAt(qid, 0, 7, 0, 0, 10), 0)
		now := time.Duration(i) * time.Second
		for s.Pending() > 0 {
			s.NextBatch(now)
			passOvers += len(s.LastExplain().Truncated)
			now += 50 * time.Millisecond
		}
	}
	if got := s.k; got != 3 {
		t.Errorf("k after sustained truncation = %d, want Max = 3", got)
	}
	if passOvers == 0 {
		t.Error("no batch-full pass-overs captured under sustained truncation")
	}

	// Empty rounds leave the streaks and k untouched.
	before := s.k
	for i := 0; i < 20; i++ {
		if got := s.NextBatch(0); len(got) != 0 {
			t.Fatalf("empty round returned %d batches", len(got))
		}
	}
	if got := s.k; got != before {
		t.Errorf("empty rounds moved k: %d -> %d", before, got)
	}
}

func TestAdaptiveBatchShrinks(t *testing.T) {
	s := adaptiveJAWS(3, AdaptiveBatchParams{Min: 1, Max: 3, Grow: 1, Shrink: 1, Full: 1, Idle: 2})
	if got := s.k; got != 3 {
		t.Fatalf("initial k = %d, want 3", got)
	}
	// One atom per round always fits: every Idle (= 2) consecutive fitting
	// rounds shave Shrink off k until it rests at Min.
	ks := []int{s.k}
	for i := 0; i < 8; i++ {
		s.Enqueue(subQueryAt(query.ID(1000+i), 0, 0, 0, 0, 10), 0)
		if got := s.NextBatch(time.Duration(i) * time.Second); len(got) != 1 {
			t.Fatalf("fitting round served %d batches", len(got))
		}
		if s.k != ks[len(ks)-1] {
			ks = append(ks, s.k)
		}
	}
	if !reflect.DeepEqual(ks, []int{3, 2, 1}) {
		t.Errorf("k moved %v, want [3 2 1] (two shrinks, then rests at Min)", ks)
	}
}

func TestAdaptiveBatchClampsInitialK(t *testing.T) {
	s := adaptiveJAWS(100, AdaptiveBatchParams{Min: 2, Max: 8, Grow: 1, Shrink: 1, Full: 1, Idle: 1})
	if got := s.k; got != 8 {
		t.Errorf("k = %d, want clamped to Max = 8", got)
	}
	s2 := adaptiveJAWS(1, AdaptiveBatchParams{Min: 4, Max: 8, Grow: 1, Shrink: 1, Full: 1, Idle: 1})
	if got := s2.k; got != 4 {
		t.Errorf("k = %d, want clamped to Min = 4", got)
	}
}

// --- fuzz ------------------------------------------------------------------

// FuzzParsePolicySpec mirrors internal/fault's FuzzParseSpec: any accepted
// input must render canonically, the rendering must reparse to the
// identical spec, and accepted parameters must satisfy the documented
// ranges.
func FuzzParsePolicySpec(f *testing.F) {
	f.Add("")
	f.Add("gate-aware")
	f.Add("adaptive-batch:min=4,max=32")
	f.Add("gate-aware:discount=0.5,boost=3;cross-step:span=2;adaptive-batch:min=2,max=5")
	f.Add("cross-step:span=9")
	f.Add("gate-aware:discount=;;cross-step::")
	f.Add(" adaptive-batch : idle = 3 , full = 1 ")
	f.Add("adaptive-batch:min=4,min=4")

	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParsePolicySpec(s)
		if err != nil {
			return
		}
		again, err := ParsePolicySpec(spec.String())
		if err != nil {
			t.Fatalf("accepted %q but rejected its rendering %q: %v", s, spec.String(), err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("round trip changed spec: %q -> %+v -> %q -> %+v", s, spec, spec.String(), again)
		}
		if p := spec.GateAware; p != nil {
			if !(p.Discount > 0 && p.Discount <= 1) || math.IsNaN(p.Discount) {
				t.Fatalf("accepted out-of-range discount %g in %q", p.Discount, s)
			}
			if !(p.Boost >= 1 && p.Boost <= 1e6) {
				t.Fatalf("accepted out-of-range boost %g in %q", p.Boost, s)
			}
		}
		if p := spec.CrossStep; p != nil && (p.Span < 1 || p.Span > 8) {
			t.Fatalf("accepted out-of-range span %d in %q", p.Span, s)
		}
		if p := spec.AdaptiveBatch; p != nil {
			if p.Min < 1 || p.Max < p.Min || p.Max > 1024 || p.Grow < 1 || p.Shrink < 1 || p.Full < 1 || p.Idle < 1 {
				t.Fatalf("accepted out-of-range adaptive-batch %+v in %q", p, s)
			}
		}
	})
}
