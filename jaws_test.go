package jaws

import (
	"testing"
	"time"

	"jaws/internal/workload"
)

// smallConfig keeps façade tests fast: a tiny store and workload.
func smallConfig(s Scheduler) Config {
	return Config{
		Space:      Space{GridSide: 128, AtomSide: 32},
		Steps:      4,
		SampleSide: 4,
		Scheduler:  s,
		BatchSize:  5,
		CacheAtoms: 16,
		Cost:       CostModel{Tb: 40 * time.Millisecond, Tm: 20 * time.Microsecond},
	}
}

func smallWorkload(seed int64, jobs int) *Workload {
	return GenerateWorkload(smallWorkloadConfig(seed, jobs))
}

func smallWorkloadConfig(seed int64, jobs int) WorkloadConfig {
	return WorkloadConfig{
		Seed:           seed,
		Space:          Space{GridSide: 128, AtomSide: 32},
		Steps:          4,
		Jobs:           jobs,
		PointsPerQuery: 20,
		MeanJobGap:     200 * time.Millisecond,
		ThinkTime:      10 * time.Millisecond,
		QueryScale:     20,
	}
}

func TestEndToEndAllSchedulers(t *testing.T) {
	w := smallWorkload(5, 30)
	total := w.TotalQueries()
	for _, s := range []Scheduler{SchedNoShare, SchedLifeRaft1, SchedLifeRaft2, SchedJAWS1, SchedJAWS2} {
		sys, err := Open(smallConfig(s))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		rep, err := sys.Run(smallWorkload(5, 30).Jobs)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if rep.Completed != total {
			t.Fatalf("%v completed %d/%d", s, rep.Completed, total)
		}
		if rep.ThroughputQPS <= 0 || rep.MeanResponse <= 0 {
			t.Fatalf("%v produced empty metrics: %+v", s, rep)
		}
	}
}

func TestJAWS2BeatsNoShareOnContendedTrace(t *testing.T) {
	// The headline claim at small scale: shared scheduling outperforms
	// independent evaluation under contention.
	run := func(s Scheduler) float64 {
		sys, err := Open(smallConfig(s))
		if err != nil {
			t.Fatal(err)
		}
		w := smallWorkload(7, 60)
		rep, err := sys.Run(w.Jobs)
		if err != nil {
			t.Fatal(err)
		}
		return rep.ThroughputQPS
	}
	noshare := run(SchedNoShare)
	jaws2 := run(SchedJAWS2)
	if jaws2 <= noshare {
		t.Fatalf("JAWS2 (%.3f qps) did not beat NoShare (%.3f qps)", jaws2, noshare)
	}
}

func TestAllCachePolicies(t *testing.T) {
	for _, name := range CachePolicyNames() {
		p, err := ParseCachePolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallConfig(SchedJAWS1)
		cfg.Policy = p
		sys, err := Open(cfg)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		w := smallWorkload(3, 20)
		if _, err := sys.Run(w.Jobs); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		st := sys.CacheStats()
		if st.Hits+st.Misses == 0 {
			t.Fatalf("%v: cache never touched", p)
		}
	}
}

func TestJobIdentificationFacade(t *testing.T) {
	w := smallWorkload(11, 50)
	assignment := IdentifyJobs(w.Records)
	if len(assignment) != len(w.Records) {
		t.Fatalf("assignment covers %d of %d records", len(assignment), len(w.Records))
	}
	if acc := JobIdentificationAccuracy(w.Records, assignment); acc < 0.85 {
		t.Fatalf("accuracy %.3f too low", acc)
	}
}

func TestRunCluster(t *testing.T) {
	cfg := ClusterConfig{Nodes: 4, Node: smallConfig(SchedJAWS1)}
	w := smallWorkload(13, 20)
	rep, err := RunCluster(cfg, w.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != w.TotalQueries() {
		t.Fatalf("cluster completed %d/%d", rep.Completed, w.TotalQueries())
	}
	if rep.AggregateThroughput <= 0 {
		t.Fatal("no aggregate throughput")
	}
}

// A cluster node is the single node: built from the same description
// through the same assembler, a one-node cluster's node report equals
// Open(cfg).Run's under every scheduler, every setting the description
// carries and every query field the split must carry (before
// internal/system, RunCluster wired its nodes by hand, so NoShare shared I/O
// there and tail policies, QoS and prefetch were dropped; until SplitJob
// copied queries whole, a ∂/∂t chain ran as a single-step query).
func TestOneNodeClusterEqualsSingleNode(t *testing.T) {
	type oneNode struct {
		cfg Config
		w   WorkloadConfig
	}
	plain := smallWorkloadConfig(5, 30)
	cases := map[string]oneNode{}
	for _, s := range []Scheduler{SchedNoShare, SchedLifeRaft1, SchedLifeRaft2, SchedJAWS1, SchedJAWS2} {
		cases[s.String()] = oneNode{smallConfig(s), plain}
	}
	tail := smallConfig(SchedJAWS2)
	tail.TailPolicy = "gate-aware;adaptive-batch"
	qos := smallConfig(SchedJAWS2)
	qos.QoSStretch = 8
	prefetch := smallConfig(SchedJAWS2)
	prefetch.Prefetch = true
	cases["JAWS2+tail"] = oneNode{tail, plain}
	cases["JAWS2+QoS"] = oneNode{qos, plain}
	cases["JAWS2+prefetch"] = oneNode{prefetch, plain}
	cases["JAWS2+deriv-chain"] = oneNode{smallConfig(SchedJAWS2), workload.MustScenario("deriv-chain").Apply(plain)}

	for name, c := range cases {
		cfg := c.cfg
		sys, err := Open(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := sys.Run(GenerateWorkload(c.w).Jobs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		crep, err := RunCluster(ClusterConfig{Nodes: 1, Node: cfg}, GenerateWorkload(c.w).Jobs)
		if err != nil {
			t.Fatalf("%s: cluster: %v", name, err)
		}
		if len(crep.PerNode) != 1 {
			t.Fatalf("%s: %d node reports, want 1", name, len(crep.PerNode))
		}
		got := crep.PerNode[0].Report
		ws, gs := want.CacheStats, got.CacheStats
		if got.Scheduler != want.Scheduler || got.Completed != want.Completed || got.Elapsed != want.Elapsed ||
			got.DiskStats != want.DiskStats || got.PrefetchedAtoms != want.PrefetchedAtoms ||
			gs.Hits != ws.Hits || gs.Misses != ws.Misses || gs.Evictions != ws.Evictions {
			t.Errorf("%s: cluster node diverged from the single node:\n node   %s: %d queries in %v, %+v, %d/%d/%d hit/miss/evict\n single %s: %d queries in %v, %+v, %d/%d/%d",
				name, got.Scheduler, got.Completed, got.Elapsed, got.DiskStats, gs.Hits, gs.Misses, gs.Evictions,
				want.Scheduler, want.Completed, want.Elapsed, want.DiskStats, ws.Hits, ws.Misses, ws.Evictions)
		}
	}

	// A description Open rejects, RunCluster rejects: per node, at run time.
	bad := smallConfig(SchedLifeRaft2)
	bad.TailPolicy = "gate-aware"
	if _, err := Open(bad); err == nil {
		t.Fatal("TailPolicy on a non-JAWS scheduler accepted by Open")
	}
	if _, err := RunCluster(ClusterConfig{Nodes: 1, Node: bad}, smallWorkload(5, 4).Jobs); err == nil {
		t.Fatal("TailPolicy on a non-JAWS node accepted by RunCluster")
	}
}

func TestComputeEndToEnd(t *testing.T) {
	cfg := smallConfig(SchedJAWS2)
	cfg.Compute = true
	cfg.KeepResults = true
	sys, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := smallWorkload(17, 5)
	rep, err := sys.Run(w.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != rep.Completed {
		t.Fatalf("results %d != completed %d", len(rep.Results), rep.Completed)
	}
	for _, r := range rep.Results {
		if len(r.Positions) == 0 {
			t.Fatal("query completed without computed positions")
		}
	}
}

func TestStringers(t *testing.T) {
	for _, s := range []Scheduler{SchedNoShare, SchedLifeRaft1, SchedLifeRaft2, SchedJAWS1, SchedJAWS2, Scheduler(42)} {
		if s.String() == "" {
			t.Fatal("empty scheduler name")
		}
	}
	for _, name := range CachePolicyNames() {
		p, err := ParseCachePolicy(name)
		if err != nil || p.String() == "" {
			t.Fatalf("policy %q: %q, %v", name, p, err)
		}
	}
	if CachePolicy(42).String() == "" {
		t.Fatal("empty policy name")
	}
}

func TestDefaultEvaluationCost(t *testing.T) {
	c := DefaultEvaluationCost()
	if c.Tb <= 0 || c.Tm <= 0 {
		t.Fatalf("bad default cost %+v", c)
	}
}

func TestExtensionsEndToEnd(t *testing.T) {
	// The §VII extensions — prefetch, declared jobs, QoS — must all run a
	// workload to completion through the public API.
	cfg := smallConfig(SchedJAWS2)
	cfg.Prefetch = true
	cfg.DeclareJobs = true
	cfg.QoSStretch = 8
	sys, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := smallWorkload(23, 25)
	rep, err := sys.Run(w.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != w.TotalQueries() {
		t.Fatalf("completed %d/%d", rep.Completed, w.TotalQueries())
	}
	if rep.Scheduler != "JAWS+QoS" {
		t.Fatalf("scheduler = %q, want JAWS+QoS", rep.Scheduler)
	}
	if rep.PrefetchedAtoms == 0 {
		t.Fatal("prefetch idle on an ordered-job workload")
	}
}

// QoS and the tail policies are hooks of one selector, so a Config may ask
// for both: the run completes under the composed scheduler's one name.
func TestQoSComposesWithTailPolicy(t *testing.T) {
	cfg := smallConfig(SchedJAWS2)
	cfg.QoSStretch = 8
	cfg.TailPolicy = "gate-aware;adaptive-batch:min=2,max=8"
	sys, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := smallWorkload(31, 25)
	rep, err := sys.Run(w.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != w.TotalQueries() {
		t.Fatalf("completed %d/%d", rep.Completed, w.TotalQueries())
	}
	if want := "JAWS+gate-aware+adaptive-batch+QoS"; rep.Scheduler != want {
		t.Fatalf("scheduler = %q, want %q", rep.Scheduler, want)
	}
}

func TestOpenSession(t *testing.T) {
	sess, err := OpenSession(smallConfig(SchedJAWS2))
	if err != nil {
		t.Fatal(err)
	}
	w := smallWorkload(29, 6)
	for _, j := range w.Jobs {
		if err := sess.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	timeout := time.After(20 * time.Second)
	for got < w.TotalQueries() {
		select {
		case r := <-sess.Results():
			if r == nil {
				t.Fatal("stream closed early")
			}
			got++
		case <-timeout:
			t.Fatalf("timed out with %d/%d results", got, w.TotalQueries())
		}
	}
	rep := sess.Close()
	if rep.Completed != w.TotalQueries() {
		t.Fatalf("completed %d/%d", rep.Completed, w.TotalQueries())
	}
	if sess.Err() != nil {
		t.Fatal(sess.Err())
	}
}
