package obs_test

import (
	"path/filepath"
	"strings"
	"testing"

	"jaws/internal/bench"
	"jaws/internal/experiments"
	"jaws/internal/obs"
	"jaws/internal/system"
)

// TestChainMatchesReferenceOnArtifacts holds Chain to the reference over
// the records of the runs behind the committed BENCH_*.json artifacts,
// each rerun from the scenario and tail policy its config record names,
// the records and spans bench.Run attributes. It compares every eighth
// span's chain: the reference is the quadratic walk, and all spans would
// cost about 30 CPU-seconds.
func TestChainMatchesReferenceOnArtifacts(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed artifact (%v)", err)
	}
	for _, file := range files {
		a, err := bench.Load(file)
		if err != nil {
			t.Fatal(err)
		}
		s := experiments.DefaultScale()
		s.Scenario, s.TailPolicy = a.Config.Scenario, a.Config.Policy
		want := bench.ConfigRecord{
			GridSide: s.Space.GridSide, AtomSide: s.Space.AtomSide, Steps: s.Steps, Seed: s.Seed,
			Jobs: s.Jobs, PointsPerQuery: s.PointsPerQuery, QueryScale: s.QueryScale,
			CacheAtoms: s.CacheAtoms, BatchSize: s.BatchSize, RunLength: s.RunLength,
			TbMillis: s.Cost.Tb.Milliseconds(), TmMicros: s.Cost.Tm.Microseconds(),
			Algorithm: system.SchedJAWS2.String(), Scenario: s.Scenario, Policy: s.TailPolicy,
		}
		if a.Config != want {
			t.Fatalf("%s was not recorded at the default scale under JAWS2:\n  recorded %+v\n  default  %+v", file, a.Config, want)
		}
		t.Run(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(file), "BENCH_"), ".json"), func(t *testing.T) {
			t.Parallel()
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
