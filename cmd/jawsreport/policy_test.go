package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jaws/internal/experiments"
	"jaws/internal/obs"
	"jaws/internal/system"
)

// regenPolicy rewrites the policy trace fixture from the seeded run below
// (then rerun with -update to refresh the golden). The fixture is
// committed so the golden test needs no engine run.
var regenPolicy = flag.Bool("regen-policy", false, "regenerate ../testdata/policy.jsonl from the seeded policy run")

// policyFixtureSpec is the tail-policy stack the fixture run decorates
// JAWS with — all three policies at once, so the golden exercises the
// report under the full stack.
const policyFixtureSpec = "gate-aware;cross-step:span=2;adaptive-batch:min=4,max=16"

// policyFixtureScale is a miniature of TestScale: just enough contention
// for gating edges and pass-over rounds to appear in the record stream
// while the committed trace stays small.
func policyFixtureScale() experiments.Scale {
	s := experiments.TestScale()
	s.Jobs = 4
	s.QueryScale = 2
	s.TailPolicy = policyFixtureSpec
	return s
}

// capturePolicyTrace executes one instrumented JAWS2 run of the scale and
// returns the raw trace bytes (spans, decision records, footer included).
func capturePolicyTrace(t *testing.T, s experiments.Scale) []byte {
	t.Helper()
	var trace bytes.Buffer
	tracer := obs.NewTracer(&trace)
	agg := obs.NewSpanAgg()
	rec := obs.NewFlightRecorder(true, tracer, nil)
	s.Obs = &obs.Obs{Trace: tracer, Spans: agg, Flight: rec}
	if _, err := experiments.RunAlgorithm(s, system.SchedJAWS2, s.BatchSize); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	return trace.Bytes()
}

// TestPolicyGolden locks the report's rendering over a policy-decorated
// trace: the per-cause wait tail and the dominant-cause starvation table
// must render (and keep rendering) under the decorated scheduler name.
// Regenerate with -regen-policy (fixture) then -update (golden) after
// intentional changes to the policies or the report.
func TestPolicyGolden(t *testing.T) {
	fixture := filepath.Join("..", "testdata", "policy.jsonl")
	if *regenPolicy {
		if err := os.WriteFile(fixture, capturePolicyTrace(t, policyFixtureScale()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	// The fixture must really be a policy run: its decision records carry
	// the policy scheduler's name. The committed fixture predates the one
	// selection kernel, when records named the deciding layer without its
	// adaptive-batch wrapper; a regenerated one says
	// JAWS+gate-aware+cross-step+adaptive-batch (one name per scheduler)
	// and differs in nothing else, so the prefix matches both.
	wantSched := "JAWS+gate-aware+cross-step"
	if !strings.Contains(string(raw), wantSched) {
		t.Fatalf("fixture carries no %q decision records; regenerate with -regen-policy", wantSched)
	}

	var out bytes.Buffer
	if err := run(bytes.NewReader(raw), "policy.jsonl", &out, 10, "", ""); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"== wait causes",
		"== starvation tail by dominant wait cause ==",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, out.String())
		}
	}

	goldenPath := filepath.Join("testdata", "policy.golden")
	if *update {
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from policy.golden (rerun with -update after intentional changes):\n%s", out.String())
	}
}

// TestWhyGateAwareFlipsCause demonstrates the gate-aware policy through
// the attribution pipeline: between the undecorated and the gate-aware
// run of the same seeded workload, at least one query whose wait was
// dominated by gated-behind must flip to a different dominant cause —
// and -why over the policy trace must render the flipped query's chain.
func TestWhyGateAwareFlipsCause(t *testing.T) {
	capture := func(policy string) ([]obs.Span, *obs.DecisionIndex, []byte) {
		s := experiments.TestScale()
		s.TailPolicy = policy
		var trace bytes.Buffer
		tracer := obs.NewTracer(&trace)
		agg := obs.NewSpanAgg()
		rec := obs.NewFlightRecorder(true, tracer, nil)
		s.Obs = &obs.Obs{Trace: tracer, Spans: agg, Flight: rec}
		if _, err := experiments.RunAlgorithm(s, system.SchedJAWS2, s.BatchSize); err != nil {
			t.Fatal(err)
		}
		if err := tracer.Close(); err != nil {
			t.Fatal(err)
		}
		return agg.Spans(), obs.NewDecisionIndex(rec.Records()), trace.Bytes()
	}
	baseSpans, baseIx, _ := capture("")
	polSpans, polIx, polTrace := capture("gate-aware")

	baseDom := make(map[int64]obs.WaitCause, len(baseSpans))
	for _, sp := range baseSpans {
		dom, _ := baseIx.Chain(sp).DominantCause()
		baseDom[sp.Query] = dom
	}
	var flipped int64 = -1
	var flippedTo obs.WaitCause
	for _, sp := range polSpans {
		if baseDom[sp.Query] != obs.CauseGated {
			continue
		}
		if dom, _ := polIx.Chain(sp).DominantCause(); dom != "" && dom != obs.CauseGated {
			flipped, flippedTo = sp.Query, dom
			break
		}
	}
	if flipped < 0 {
		t.Fatal("no gated-behind-dominated query flipped its dominant cause under gate-aware; the policy changed nothing the attribution can see")
	}
	t.Logf("query %d: gated-behind -> %s under gate-aware", flipped, flippedTo)

	var out bytes.Buffer
	if err := run(bytes.NewReader(polTrace), "policy", &out, 5, "", fmt.Sprint(flipped)); err != nil {
		t.Fatalf("run -why: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		fmt.Sprintf("why query %d", flipped),
		"wait by cause:",
		string(flippedTo),
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-why output missing %q:\n%s", want, out.String())
		}
	}
}
