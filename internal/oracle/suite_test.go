package oracle

import (
	"fmt"
	"testing"

	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/store"
	"jaws/internal/workload"
)

// TestDifferentialSuite is the headline check of this package and the
// oracle gate (make check-oracle): randomized workloads are captured on a
// real engine and replayed through the reference models, with and without
// fault schedules, and every decision and utility must agree bit for bit.
// 34 seeds × (3 standard + 2 churn + 3 scenario-matrix + 1 tail-policy
// profiles) × {clean, faulted} = 612 differential runs, plus ComposeSeeds ×
// {clean, faulted} = 12 of JAWS under QoS × tail policies. The first
// divergence is re-captured and shrunk to a minimal reproducer.
func TestDifferentialSuite(t *testing.T) {
	seeds := 34
	if testing.Short() {
		seeds = 5
	}
	results, err := Suite(seeds)
	if err != nil {
		t.Fatalf("suite: %v", err)
	}
	if want := (seeds*(3+2+3+1) + min(seeds, ComposeSeeds)) * 2; len(results) != want {
		t.Fatalf("suite ran %d captures, want %d", len(results), want)
	}
	var crashed, decisions, diverged int
	for _, r := range results {
		if r.Divergence != nil {
			t.Errorf("%s: %v", r, r.Divergence)
			if diverged++; diverged == 1 {
				t.Log(reproducer(r))
			}
		}
		for _, v := range r.Violations {
			t.Errorf("%s: invariant: %s", r, v)
		}
		if r.Crashed {
			crashed++
		}
		decisions += r.Decisions
	}
	t.Logf("%d captures, %d diverged", len(results), diverged)
	// The fault pass is only meaningful if its crash schedules actually
	// truncate runs, and a suite that made no decisions certifies nothing.
	if crashed == 0 {
		t.Error("no capture crashed; fault schedules are not exercising the crash path")
	}
	if crashed == len(results)/2 {
		t.Error("every faulted capture crashed; no faulted run completed")
	}
	if decisions == 0 {
		t.Error("suite recorded zero scheduling decisions")
	}
}

// reproducer re-captures a diverging suite run and shrinks its op log to
// a minimal reproducer.
func reproducer(r *SeedResult) string {
	cfg, p := ProfileParams(r.Profile, r.Algo, r.Seed)
	cfg.FaultSpec, cfg.FaultSeed = r.FaultSpec, r.Seed
	c, err := Run(cfg)
	if err != nil {
		return fmt.Sprintf("recapture of %s failed: %v", r, err)
	}
	shrunk := Shrink(StandardTarget(r.Algo, p), c.Log)
	return fmt.Sprintf("%s: minimal reproducer (%d of %d ops):\n%s", r, len(shrunk.Ops), len(c.Log.Ops), FormatOps(shrunk))
}

// TestSuiteDeterminism re-captures one configuration and requires the two
// op logs to be identical — the property that makes replay-vs-recorded
// divergences meaningful.
func TestSuiteDeterminism(t *testing.T) {
	for _, a := range []Algo{AlgoNoShare, AlgoLifeRaft, AlgoJAWS} {
		cfg, _ := SuiteParams(a, 7)
		c1, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		c2, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if len(c1.Log.Ops) != len(c2.Log.Ops) {
			t.Fatalf("%v: op counts differ between identical runs: %d vs %d", a, len(c1.Log.Ops), len(c2.Log.Ops))
		}
		for i := range c1.Log.Ops {
			o1, o2 := c1.Log.Ops[i], c2.Log.Ops[i]
			if o1.Kind != o2.Kind || o1.Now != o2.Now {
				t.Fatalf("%v: op %d differs: kind %v@%v vs kind %v@%v", a, i, o1.Kind, o1.Now, o2.Kind, o2.Now)
			}
			if o1.Kind == OpDecision && !describeMatches(o1, o2) {
				t.Fatalf("%v: decision %d differs: %s vs %s", a, i, describeBatches(o1.Got), describeBatches(o2.Got))
			}
		}
	}
}

// describeMatches compares two recorded decisions structurally (sub-query
// pointers differ between runs, so batchesEqual cannot apply).
func describeMatches(a, b Op) bool {
	return describeBatches(a.Got) == describeBatches(b.Got)
}

// TestMatrixProfileCoversNewClasses opens the matrix profile's hood: the
// generated workloads must actually contain derivative chains, and the
// arrival process must cycle with the seed — otherwise the matrix pass
// would certify nothing beyond the standard profile.
func TestMatrixProfileCoversNewClasses(t *testing.T) {
	arrivals := make(map[string]bool)
	for seed := int64(1); seed <= 6; seed++ {
		cfg, _ := MatrixParams(AlgoJAWS, seed)
		name := "on-off"
		if cfg.Workload.Arrivals != nil {
			name = cfg.Workload.Arrivals.Name()
		}
		arrivals[name] = true

		wl := workload.Generate(cfg.Workload)
		derivs := 0
		for _, jb := range wl.Jobs {
			for _, q := range jb.Queries {
				if q.DerivSteps >= 2 {
					derivs++
					if q.Step+q.DerivSteps > cfg.Workload.Steps {
						t.Errorf("seed %d: chain [%d, %d) exceeds %d steps", seed, q.Step, q.Step+q.DerivSteps, cfg.Workload.Steps)
					}
				}
			}
		}
		if derivs == 0 {
			t.Errorf("seed %d: matrix workload contains no derivative chains", seed)
		}
	}
	if len(arrivals) != 3 {
		t.Errorf("six consecutive seeds covered arrival processes %v, want all 3", arrivals)
	}
}

// TestComposeProfileCoversBothRoundKinds opens the compose profile's hood:
// its captures must interleave earliest-deadline rounds with two-level
// ones, truncate some of the latter (so the batch-bound steer sees both
// signals), and record live gate states — otherwise the profile would
// certify QoS or the tail policies, not their composition.
func TestComposeProfileCoversBothRoundKinds(t *testing.T) {
	var urgent, twoLevel, truncating, gated int
	for seed := int64(1); seed <= ComposeSeeds; seed++ {
		cfg, p := ComposeParams(AlgoJAWS, seed)
		c, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Replay the capture through a fresh production scheduler with
		// decision capture on: the flight-recorder view says which kind of
		// round each decision was.
		// live counts the pending sub-queries whose query was enqueued
		// under a live (non-GateFree) gate state: a decision taken while
		// it is positive is one the gate-aware factor could steer.
		var snap map[store.AtomID]bool
		gates := make(map[query.ID]sched.GateState)
		live := 0
		s := StandardTarget(AlgoJAWS, p).New(func(id store.AtomID) bool { return snap[id] })
		s.(sched.GateAware).SetGateSource(func(q query.ID) sched.GateState { return gates[q] })
		ex := s.(sched.Explained)
		ex.SetExplain(true)
		for _, op := range c.Log.Ops {
			switch op.Kind {
			case OpEnqueue:
				gates[op.Sub.Query.ID] = op.Gate
				if op.Gate != sched.GateFree {
					live++
				}
				s.Enqueue(op.Sub, op.Now)
			case OpRunEnd:
				s.OnRunEnd(op.RT, op.TP)
			case OpDecision:
				snap = op.Resident
				if live > 0 {
					gated++
				}
				got := s.NextBatch(op.Now)
				if !batchesEqual(got, op.Got) {
					t.Fatalf("seed %d: replay diverged from the capture", seed)
				}
				for _, b := range got {
					for _, sq := range b.SubQueries {
						if gates[sq.Query.ID] != sched.GateFree {
							live--
						}
					}
				}
				if len(got) == 0 {
					continue
				}
				e := ex.LastExplain()
				if e.Urgent {
					urgent++
					continue
				}
				twoLevel++
				if len(e.Truncated) > 0 {
					truncating++
				}
			}
		}
	}
	t.Logf("%d compose seeds: %d urgent rounds, %d two-level (%d truncating), %d decisions under live gate states",
		ComposeSeeds, urgent, twoLevel, truncating, gated)
	if urgent == 0 || twoLevel == 0 || truncating == 0 || gated == 0 {
		t.Error("the compose profile does not exercise the composition")
	}
}
