package fault_test

import (
	"testing"

	"jaws/internal/cluster"
)

// TestChaosSpansConserveAcrossFailover extends the chaos sweep to the
// span layer: under node crashes, replica reruns, transient disk errors
// and latency spikes, the mediator's pooled span set must hold exactly
// one span per kept per-node completion (crashed runs discarded), and
// every span must satisfy the attribution invariant — retry backoff and
// fault delay are clock advances like any other, so they land in phases,
// never outside them.
func TestChaosSpansConserveAcrossFailover(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cfg := chaosConfig(t, seed)
		cl, err := cluster.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := cl.Run(chaosJobs(cfg.Node.Space))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Failovers < 1 {
			t.Fatalf("seed %d: crash did not fire", seed)
		}
		// Exactly-once at the span layer: pooled spans match the merged
		// per-node completion counter, not the crashed runs' partial work.
		served := rep.Metrics.Counter("jaws_queries_completed_total").Value()
		if got := int64(rep.Spans.Count()); got != served {
			t.Fatalf("seed %d: %d pooled spans for %d kept per-node completions", seed, got, served)
		}
		for _, sp := range rep.Spans.Spans() {
			if sp.PhaseSum() != sp.Total() {
				t.Fatalf("seed %d: query %d violates attribution under chaos: phases %v != total %v",
					seed, sp.Query, sp.PhaseSum(), sp.Total())
			}
		}
		// The summary must survive pooling (percentiles over the merged
		// set, deterministic ordering).
		sum := rep.Spans.Summarize(3)
		if p := sum.Phases; sum.Count == 0 || p.Gated+p.Queued+p.Overhead+p.Disk+p.Compute != sum.TotalResponse {
			t.Fatalf("seed %d: pooled summary inconsistent: %+v", seed, sum)
		}
	}
}
