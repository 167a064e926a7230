package experiments

import (
	"testing"

	"jaws/internal/engine"
	"jaws/internal/obs"
	"jaws/internal/system"
)

// instrumentedRun executes one JAWS2 run of the scale with span
// collection and the flight recorder on, returning the report plus the
// raw spans and decision index for conservation checks.
func instrumentedRun(t *testing.T, s Scale) (*engine.Report, []obs.Span, *obs.DecisionIndex) {
	t.Helper()
	agg := obs.NewSpanAgg()
	rec := obs.NewFlightRecorder(true, nil, nil)
	s.Obs = &obs.Obs{Spans: agg, Flight: rec}
	rep, err := RunAlgorithm(s, system.SchedJAWS2, s.BatchSize)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 {
		t.Fatal("run completed no queries")
	}
	return rep, agg.Spans(), obs.NewDecisionIndex(rec.Records())
}

// TestDerivScenarioStressesGating is the scenario matrix's regression
// anchor on the scheduler: a derivative chain spans k adjacent steps, so
// each gated query shares atoms across a strictly wider set than its
// point twin, and the job graph must probe strictly more candidate
// gating links — absolutely and per completed query. (Admitted-edge
// counts alone are not monotone in sharing: a transitively co-scheduled
// pair returns early without minting a new edge, and richer sharing
// feeds the crossing/level feasibility checks more conflicting
// candidates to reject — so the gate is on admitted+rejected, the
// graph's total linking work.) If the deriv run ever stops out-probing
// the point run, derivative chains have stopped reaching the job graph.
// Span and wait-cause conservation must survive the new class: every
// span's phases sum to its total, and every reconstructed wait chain
// partitions Gated + Queued exactly.
func TestDerivScenarioStressesGating(t *testing.T) {
	base := TestScale()
	deriv := TestScale()
	deriv.Scenario = "deriv-chain"

	baseRep, _, _ := instrumentedRun(t, base)
	derivRep, spans, ix := instrumentedRun(t, deriv)

	baseLinks := baseRep.GatingAdmitted + baseRep.GatingRejected
	derivLinks := derivRep.GatingAdmitted + derivRep.GatingRejected
	if baseRep.GatingAdmitted == 0 || derivRep.GatingAdmitted == 0 {
		t.Fatalf("a run admitted no gating edges (fig8 %d, deriv-chain %d); the comparison certifies nothing",
			baseRep.GatingAdmitted, derivRep.GatingAdmitted)
	}
	if derivLinks <= baseLinks {
		t.Errorf("deriv-chain probed %d gating links, fig8 twin %d: derivative chains are not widening the job graph",
			derivLinks, baseLinks)
	}
	baseRate := float64(baseLinks) / float64(baseRep.Completed)
	derivRate := float64(derivLinks) / float64(derivRep.Completed)
	if derivRate <= baseRate {
		t.Errorf("deriv-chain probed %.3f gating links per query, fig8 twin %.3f: sharing density did not rise",
			derivRate, baseRate)
	}

	// Span conservation: attribution must not leak on chained queries.
	for _, sp := range spans {
		if sp.PhaseSum() != sp.Total() {
			t.Fatalf("query %d: phases sum to %v, span total %v", sp.Query, sp.PhaseSum(), sp.Total())
		}
	}

	// Wait-cause conservation: the retaining recorder saw every round, so
	// each chain must partition the span's Queued phase exactly.
	inexact := 0
	for _, sp := range spans {
		if c := ix.Chain(sp); !c.Exact {
			inexact++
		}
	}
	if inexact > 0 {
		t.Errorf("%d/%d wait chains do not partition their span's Queued phase", inexact, len(spans))
	}
}
