// Chaos harness: seeded fault schedules are swept against a full
// simulated cluster — node 1 is crashed mid-run, disk errors, latency
// spikes and cache corruption fire probabilistically everywhere — and
// every schedule is replayed to prove the determinism contract: the same
// (spec, seed) pair yields bit-identical virtual-time results, and every
// logical query completes exactly once despite the failover rerun.
//
// The harness lives in package fault_test because it drives the cluster
// layer, which itself imports internal/fault.
package fault_test

import (
	"fmt"
	"testing"
	"time"

	"jaws/internal/cluster"
	"jaws/internal/fault"
	"jaws/internal/field"
	"jaws/internal/geom"
	"jaws/internal/job"
	"jaws/internal/morton"
	"jaws/internal/obs"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/system"
)

var chaosCost = sched.CostModel{Tb: 40 * time.Millisecond, Tm: 20 * time.Microsecond}

// chaosSpec crashes node 1 early (so its jobs fail over to node 2) and
// subjects every node to transient read errors, stalling spindles and
// cache corruption for the whole run.
const chaosSpec = "crash@1:at=10ms;disk-transient:p=0.05,extra=1ms;disk-slow:p=0.1,extra=2ms;corrupt:p=0.02"

// chaosConfig's nodes share one span pool through Node.Obs, so a test
// sees every node run's spans, crashed runs' too.
func chaosConfig(t *testing.T, seed int64) cluster.Config {
	t.Helper()
	spec, err := fault.ParseSpec(chaosSpec)
	if err != nil {
		t.Fatal(err)
	}
	return cluster.Config{
		Nodes: 4,
		Node: system.Config{
			Space:       geom.Space{GridSide: 128, AtomSide: 32}, // 64 atoms/step
			Steps:       2,
			SampleSide:  4,
			Seed:        3,
			Scheduler:   system.SchedJAWS1,
			BatchSize:   4,
			AlphaSet:    true, // α fixed at 0
			AdaptiveOff: true,
			Policy:      system.PolicyLRUK,
			CacheAtoms:  8,
			Cost:        chaosCost,
			Fault:       spec,
			FaultSeed:   seed,
			Obs:         &obs.Obs{Spans: obs.NewSpanAgg()},
		},
		Replicas: 2,
	}
}

// atomCenter positions a point at the centre of the atom with the given
// Morton code, so the contiguous partitioner (node = code*nodes/64)
// routes it exactly where the test wants it.
func atomCenter(space geom.Space, code int) geom.Position {
	atomLen := float64(space.AtomSide) * space.VoxelSize()
	a := geom.AtomFromCode(morton.Code(code))
	return geom.Position{
		X: (float64(a.I) + 0.5) * atomLen,
		Y: (float64(a.J) + 0.5) * atomLen,
		Z: (float64(a.K) + 0.5) * atomLen,
	}
}

// chaosJobs spreads batched work over all four nodes' partitions, with
// enough queries per node that every node is still running when the
// crash fires.
func chaosJobs(space geom.Space) []*job.Job {
	var jobs []*job.Job
	for id := int64(1); id <= 12; id++ {
		node := int(id % 4) // owning node: codes [node*16, node*16+16)
		j := &job.Job{ID: id, User: int(id), Type: job.Batched}
		for s := 0; s < 2; s++ {
			base := node*16 + int(id/4)*4
			j.Queries = append(j.Queries, &query.Query{
				ID: query.ID(id*10 + int64(s)), JobID: id, Seq: s, Step: 0,
				Points: []geom.Position{
					atomCenter(space, base+2*s),
					atomCenter(space, base+2*s+1),
				},
				Kernel: field.KernelNone,
			})
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// snapshot condenses everything a replay must reproduce bit-for-bit.
type snapshot struct {
	completed  int
	failovers  int
	maxElapsed float64
	served     int // Σ PerNode[i].Report.Completed
	perRun     string
}

func runChaos(t *testing.T, seed int64) (snapshot, int) {
	t.Helper()
	cfg := chaosConfig(t, seed)
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := chaosJobs(cfg.Node.Space)

	// Expected per-partition query count, from a split of its own.
	expectedServed := 0
	for _, j := range jobs {
		for _, nj := range cl.SplitJob(j) {
			expectedServed += len(nj.Queries)
		}
	}

	rep, err := cl.Run(jobs)
	if err != nil {
		t.Fatalf("seed %d: chaos run failed: %v", seed, err)
	}

	snap := snapshot{
		completed:  rep.Completed,
		failovers:  rep.Failovers,
		maxElapsed: rep.MaxElapsed,
	}
	for _, nr := range rep.PerNode {
		r := nr.Report
		snap.served += r.Completed
		snap.perRun += fmt.Sprintf("host=%d for=%d done=%d elapsed=%v retries=%d faults=%+v;",
			nr.Node, nr.For, r.Completed, r.Elapsed, r.Retries, r.Faults)
	}
	return snap, expectedServed
}

func TestChaosEveryQueryCompletesExactlyOnce(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		snap, expectedServed := runChaos(t, seed)
		// All 24 logical queries (12 jobs × 2) complete despite the
		// crash: node 1's partition was rerun on its replica.
		if snap.completed != 24 {
			t.Fatalf("seed %d: %d/24 logical queries completed", seed, snap.completed)
		}
		if snap.failovers < 1 {
			t.Fatalf("seed %d: crash did not fire", seed)
		}
		// Exactly once: the kept runs' completions sum to the split's
		// per-partition query count — the crashed run's partial work was
		// discarded, the failover served the partition once, and nothing
		// ran twice.
		if snap.served != expectedServed {
			t.Fatalf("seed %d: served %d per-node queries, want exactly %d",
				seed, snap.served, expectedServed)
		}
	}
}

func TestChaosReplaysAreIdentical(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a, _ := runChaos(t, seed)
		b, _ := runChaos(t, seed)
		if a != b {
			t.Fatalf("seed %d: replay diverged:\n  first:  %+v\n  second: %+v", seed, a, b)
		}
	}
}

func TestChaosSeedsDiverge(t *testing.T) {
	// Different seeds must explore different schedules (otherwise the
	// sweep above is five copies of one scenario). Virtual elapsed time
	// is sensitive to every injected fault, so compare that.
	a, _ := runChaos(t, 1)
	b, _ := runChaos(t, 2)
	if a.perRun == b.perRun {
		t.Fatal("seeds 1 and 2 produced identical runs")
	}
}
