package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"jaws/internal/experiments"
	"jaws/internal/obs"
	"jaws/internal/system"
)

// TestWhyEndToEnd drives the full attribution pipeline against a real
// engine run: a small JAWS2 workload executes with the flight recorder
// on, and the resulting trace must let -why reconstruct a complete wait
// chain for the most-queued query — with the acceptance invariant that
// EVERY completed span's chain is exact (each eligible round accounted
// to exactly one cause, causes summing to the span's gated + queued).
func TestWhyEndToEnd(t *testing.T) {
	var trace bytes.Buffer
	tracer := obs.NewTracer(&trace)
	agg := obs.NewSpanAgg()
	rec := obs.NewFlightRecorder(true, tracer, nil) // retains every record: no round may be lost
	s := experiments.TestScale()
	s.Obs = &obs.Obs{Trace: tracer, Spans: agg, Flight: rec}
	if _, err := experiments.RunAlgorithm(s, system.SchedJAWS2, s.BatchSize); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}

	spans := agg.Spans()
	if len(spans) == 0 {
		t.Fatal("run produced no spans")
	}
	if len(rec.Records()) == 0 {
		t.Fatal("run produced no decision records")
	}
	ix := obs.NewDecisionIndex(rec.Records())

	// Conservation across the whole population, not just one lucky span.
	target := &spans[0]
	for i := range spans {
		sp := &spans[i]
		c := ix.Chain(*sp)
		if c.Note != "" {
			t.Fatalf("query %d: incomplete chain with a retaining recorder: %s", sp.Query, c.Note)
		}
		if !c.Exact {
			t.Errorf("query %d: chain inexact: rounds charge %v, span queued %v", sp.Query, c.Queued, sp.Queued)
		}
		var sum time.Duration
		for _, d := range c.ByCause {
			sum += d
		}
		if want := sp.Gated + sp.Queued; sum != want {
			t.Errorf("query %d: causes sum to %v, want gated+queued = %v", sp.Query, sum, want)
		}
		for _, r := range c.Rounds {
			if !r.Serving && r.Cause == "" {
				t.Errorf("query %d: pass-over round seq %d has no cause", sp.Query, r.Seq)
			}
		}
		if sp.Queued > target.Queued {
			target = sp
		}
	}
	if target.Queued == 0 {
		t.Fatal("no query queued at all; the test workload is too small to exercise attribution")
	}

	// The command-level join: feed the trace back through run() with -why
	// and check the rendered chain.
	var out bytes.Buffer
	if err := run(bytes.NewReader(trace.Bytes()), "e2e", &out, 5, "", fmt.Sprint(target.Query)); err != nil {
		t.Fatalf("run -why: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		fmt.Sprintf("why query %d", target.Query),
		"decision rounds in [dispatch, done):",
		"passed over",
		"wait by cause:",
		"(exact)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-why output missing %q:\n%s", want, out.String())
		}
	}

	// The aggregate report over the same trace must carry the wait-cause
	// sections and still pass the integrity audit (exit-0 path).
	out.Reset()
	if err := run(bytes.NewReader(trace.Bytes()), "e2e", &out, 5, "", ""); err != nil {
		t.Fatalf("aggregate report: %v", err)
	}
	for _, want := range []string{
		"== wait causes",
		"== starvation tail by dominant wait cause ==",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("aggregate report missing %q", want)
		}
	}
}
