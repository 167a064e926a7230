package fault_test

import (
	"testing"

	"jaws/internal/cluster"
)

// TestChaosSpansConserveAcrossFailover extends the chaos sweep to the
// span layer: under node crashes, replica reruns, transient disk errors
// and latency spikes, every span the nodes share a pool for — the crashed
// runs' completions too — must satisfy the attribution invariant: retry
// backoff and fault delay are clock advances like any other, so they land
// in phases, never outside them.
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
		// The pool holds the kept runs' spans and the crashed runs'.
		served := 0
		for _, nr := range rep.PerNode {
			served += nr.Report.Completed
		}
		spans := cfg.Node.Obs.Spans
		if got := len(spans.Spans()); got < served {
			t.Fatalf("seed %d: %d pooled spans for %d kept per-node completions", seed, got, served)
		}
		for _, sp := range spans.Spans() {
			if sp.PhaseSum() != sp.Total() {
				t.Fatalf("seed %d: query %d violates attribution under chaos: phases %v != total %v",
					seed, sp.Query, sp.PhaseSum(), sp.Total())
			}
		}
		// The summary must survive pooling (percentiles over the shared
		// set, deterministic ordering).
		sum := spans.Summarize(3)
		if p := sum.Phases; sum.Count == 0 || p.Gated+p.Queued+p.Overhead+p.Disk+p.Compute != sum.TotalResponse {
			t.Fatalf("seed %d: pooled summary inconsistent: %+v", seed, sum)
		}
	}
}
