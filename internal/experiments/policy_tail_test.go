package experiments

import (
	"sort"
	"testing"
	"time"

	"jaws/internal/obs"
	"jaws/internal/system"
)

// p99Response runs one instrumented JAWS2 run of the scale and returns
// the 99th percentile of the per-query virtual response times (span
// totals), using the repository's tail-percentile convention
// (ds[n-1-n*q/100], the obs.CauseBreakdown rank).
func p99Response(t *testing.T, s Scale) time.Duration {
	t.Helper()
	agg := obs.NewSpanAgg()
	s.Obs = &obs.Obs{Spans: agg}
	rep, err := RunAlgorithm(s, system.SchedJAWS2, s.BatchSize)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 {
		t.Fatal("run completed no queries")
	}
	spans := agg.Spans()
	ds := make([]time.Duration, 0, len(spans))
	for _, sp := range spans {
		ds = append(ds, sp.Total())
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)-1-len(ds)*99/100]
}

// TestTailPoliciesBoundP99 is the statistical regression net under the
// tail policies: across seeded scenario runs, decorating the JAWS
// scheduler with a tail-policy stack must never worsen the p99 virtual
// response beyond a pinned tolerance of the undecorated run. The runs are
// virtual-clock deterministic per seed, so a failure here is a real
// behavioral change in a policy decision rule, not noise.
func TestTailPoliciesBoundP99(t *testing.T) {
	// The tolerance is deliberately loose — the policies optimize the
	// tail's wait *causes*, and the per-scenario bench gates own the tight
	// numbers — but it pins the contract that no policy stack melts the
	// tail down wholesale.
	const tolerance = 1.15

	// The stacks are the ones the committed BENCH_*-tail.json artifacts
	// pin per scenario (see README "Attacking the tail").
	cases := []struct {
		scenario string
		policy   string
	}{
		{"fig8", "gate-aware:boost=1.2,discount=0.8"},
		{"poisson-box", "gate-aware"},
		{"deriv-chain", "cross-step:span=2;adaptive-batch"},
	}
	// TestScale's tail is a handful of queries, so a single decision swing
	// moves its p99 by half — too noisy to pin. This mid-size scale keeps
	// the whole matrix in tier-1 time while the p99 rank sits deep enough
	// in the population to be meaningful.
	midScale := func() Scale {
		s := TestScale()
		s.Jobs = 150
		s.Steps = 16
		s.QueryScale = 10
		s.CacheAtoms = 64
		return s
	}

	seeds := []int64{42, 1337}
	for _, c := range cases {
		for _, seed := range seeds {
			base := midScale()
			base.Scenario = c.scenario
			base.Seed = seed
			pol := base
			pol.TailPolicy = c.policy

			seedP99 := p99Response(t, base)
			polP99 := p99Response(t, pol)
			t.Logf("%s seed %d: seed p99 %v, %q p99 %v", c.scenario, seed, seedP99, c.policy, polP99)
			if float64(polP99) > float64(seedP99)*tolerance {
				t.Errorf("%s seed %d: policy %q p99 response %v exceeds seed scheduler %v beyond %.0f%% tolerance",
					c.scenario, seed, c.policy, polP99, seedP99, (tolerance-1)*100)
			}
		}
	}
}
