package obs_test

import (
	"testing"

	"jaws/internal/experiments"
	"jaws/internal/obs"
	"jaws/internal/system"
)

// TestChainMatchesReferenceOnArtifacts holds Chain to the reference over
// the records of the runs behind the seven committed BENCH_*.json
// artifacts (the table in cmd/jawsbench/artifacts_test.go), the records
// and spans bench.Run attributes. It compares every eighth span's chain:
// the reference is the quadratic walk, and all spans would cost
// about 30 CPU-seconds.
func TestChainMatchesReferenceOnArtifacts(t *testing.T) {
	for _, a := range []struct{ name, scenario, policy string }{
		{"main", "", ""},
		{"poisson-box", "poisson-box", ""},
		{"deriv-chain", "deriv-chain", ""},
		{"diurnal", "diurnal", ""},
		{"fig8-tail", "fig8", "gate-aware:boost=1.2,discount=0.8"},
		{"poisson-box-tail", "poisson-box", "gate-aware"},
		{"deriv-chain-tail", "deriv-chain", "cross-step:span=2;adaptive-batch"},
	} {
		t.Run(a.name, func(t *testing.T) {
			t.Parallel()
			s := experiments.DefaultScale()
			s.Scenario, s.TailPolicy = a.scenario, a.policy
			agg, rec := obs.NewSpanAgg(), obs.NewFlightRecorder(true, nil, nil)
			s.Obs = &obs.Obs{Spans: agg, Flight: rec}
			if _, err := experiments.RunAlgorithm(s, system.SchedJAWS2, s.BatchSize); err != nil {
				t.Fatal(err)
			}
			var sample []obs.Span
			for i, sp := range agg.Spans() {
				if i%8 == 0 {
					sample = append(sample, sp)
				}
			}
			obs.DiffChains(t, rec.Records(), sample)
		})
	}
}
