package cluster

import (
	"strings"
	"testing"

	"jaws/internal/fault"
	"jaws/internal/field"
	"jaws/internal/geom"
	"jaws/internal/job"
	"jaws/internal/morton"
	"jaws/internal/query"
	"jaws/internal/store"
	"jaws/internal/system"
)

// nodeCenters returns positions at the centers of every atom owned by node
// under cfg's partitioning, in Morton order.
func nodeCenters(t *testing.T, cfg Config, node int) []geom.Position {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	space := cfg.Node.Space
	atomLen := float64(space.AtomSide) * space.VoxelSize()
	side := space.GridSide / space.AtomSide
	var pts []geom.Position
	for code := 0; code < space.AtomsPerStep(); code++ {
		if c.part.NodeOf(store.AtomID{Step: 0, Code: morton.Code(code)}) != node {
			continue
		}
		x, y, z := morton.Code(code).Decode()
		if int(x) >= side || int(y) >= side || int(z) >= side {
			continue
		}
		pts = append(pts, geom.Position{
			X: (float64(x) + 0.5) * atomLen,
			Y: (float64(y) + 0.5) * atomLen,
			Z: (float64(z) + 0.5) * atomLen,
		})
	}
	if len(pts) == 0 {
		t.Fatalf("no atoms owned by node %d", node)
	}
	return pts
}

// heavyJob builds a job whose queries sweep all of node's atoms several
// times — enough virtual disk time to outlive any crash schedule in these
// tests (each full sweep costs at least 16 misses × 40ms = 640ms).
func heavyJob(t *testing.T, cfg Config, id int64, node int) *job.Job {
	t.Helper()
	pts := nodeCenters(t, cfg, node)
	j := &job.Job{ID: id, User: 1, Type: job.Batched, ThinkTime: 0}
	for i := 0; i < 4; i++ {
		j.Queries = append(j.Queries, &query.Query{
			ID: query.ID(id*100 + int64(i)), JobID: id, Seq: i, Step: 0,
			Points: pts, Kernel: field.KernelNone, Arrival: 0,
		})
	}
	return j
}

func mustSpec(t *testing.T, s string) fault.Spec {
	t.Helper()
	spec, err := fault.ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestRunPartialReportOnCrash(t *testing.T) {
	// Node 0 crashes with no replica to fail over to: Run must return a
	// joined error naming the node AND a partial report carrying node 1's
	// completed work — with the crashed run's spans and metrics discarded.
	cfg := testConfig(2)
	cfg.Observe = true
	cfg.Node.Fault = mustSpec(t, "crash@0:at=50ms")
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []*job.Job{
		heavyJob(t, cfg, 1, 0),
		mkClusterJob(2, nodeCenters(t, cfg, 1)[:1], job.Batched),
	}
	rep, err := c.Run(jobs)
	if err == nil {
		t.Fatal("crashed node with replicas=1 did not surface an error")
	}
	if !strings.Contains(err.Error(), "cluster node 0") || !strings.Contains(err.Error(), "no surviving replica") {
		t.Errorf("error does not attribute the crash: %v", err)
	}
	if !strings.Contains(err.Error(), "crashed") {
		t.Errorf("crash cause not surfaced: %v", err)
	}
	if rep == nil {
		t.Fatal("no partial report alongside the error")
	}
	if len(rep.PerNode) != 1 || rep.PerNode[0].Node != 1 {
		t.Fatalf("partial report should hold exactly node 1's run: %+v", rep.PerNode)
	}
	if rep.Completed != 1 {
		t.Errorf("Completed = %d, want only node 1's query", rep.Completed)
	}
	if len(rep.FailedNodes) != 1 || rep.FailedNodes[0] != 0 {
		t.Errorf("FailedNodes = %v, want [0]", rep.FailedNodes)
	}
	if rep.Failovers != 0 {
		t.Errorf("Failovers = %d with replicas=1", rep.Failovers)
	}
	// Exactly-once span accounting: only the kept run's spans remain.
	want := 0
	for _, nr := range rep.PerNode {
		want += nr.Report.Completed
	}
	if got := rep.Spans.Count(); got != want {
		t.Errorf("Spans.Count() = %d, want %d (crashed run's spans must be discarded)", got, want)
	}
	if got := rep.Metrics.Counter("jaws_node_crashes_total").Value(); got != 1 {
		t.Errorf("jaws_node_crashes_total = %d, want 1", got)
	}
	if got := rep.Metrics.Counter("jaws_failovers_total").Value(); got != 0 {
		t.Errorf("jaws_failovers_total = %d, want 0", got)
	}
}

func TestRunFailoverReplicaServes(t *testing.T) {
	// With replicas=2 the dead node's jobs rerun on node 1 and the cluster
	// completes everything: no error, one failover, exactly-once spans.
	cfg := testConfig(2)
	cfg.Observe = true
	cfg.Replicas = 2
	cfg.Node.Fault = mustSpec(t, "crash@0:at=50ms")
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []*job.Job{
		heavyJob(t, cfg, 1, 0),
		mkClusterJob(2, nodeCenters(t, cfg, 1)[:1], job.Batched),
	}
	rep, err := c.Run(jobs)
	if err != nil {
		t.Fatalf("failover did not absorb the crash: %v", err)
	}
	if rep.Failovers != 1 || len(rep.FailedNodes) != 0 {
		t.Fatalf("Failovers = %d, FailedNodes = %v", rep.Failovers, rep.FailedNodes)
	}
	// The rerun appears as node 1 hosting node 0's partition.
	var hosted bool
	for _, nr := range rep.PerNode {
		if nr.Node == 1 && nr.For == 0 {
			hosted = true
		}
	}
	if !hosted {
		t.Fatalf("no PerNode entry for the failover rerun: %+v", rep.PerNode)
	}
	if rep.Completed != 5 { // 4 heavy queries + 1 tiny
		t.Errorf("Completed = %d, want 5", rep.Completed)
	}
	want := 0
	for _, nr := range rep.PerNode {
		want += nr.Report.Completed
	}
	if got := rep.Spans.Count(); got != want {
		t.Errorf("Spans.Count() = %d, want %d", got, want)
	}
	if got := rep.Metrics.Counter("jaws_failovers_total").Value(); got != 1 {
		t.Errorf("jaws_failovers_total = %d, want 1", got)
	}
}

func TestRunCascadeFailover(t *testing.T) {
	// Node 0 crashes immediately. Its first replica (node 1) survives its
	// own tiny run but its crash schedule kills the much longer rerun of
	// node 0's jobs, so the partition cascades to node 2, which serves it.
	cfg := testConfig(4)
	cfg.Observe = true
	cfg.Replicas = 3
	cfg.Node.Fault = mustSpec(t, "crash@0:at=50ms;crash@1:at=500ms")
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []*job.Job{
		heavyJob(t, cfg, 1, 0), // ≥ 16 atoms × 40ms per sweep ≫ 500ms
		mkClusterJob(2, nodeCenters(t, cfg, 1)[:1], job.Batched), // ~40ms ≪ 500ms
	}
	rep, err := c.Run(jobs)
	if err != nil {
		t.Fatalf("cascade failover did not recover: %v", err)
	}
	if rep.Failovers != 1 || len(rep.FailedNodes) != 0 {
		t.Fatalf("Failovers = %d, FailedNodes = %v", rep.Failovers, rep.FailedNodes)
	}
	var host = -1
	for _, nr := range rep.PerNode {
		if nr.For == 0 {
			host = nr.Node
		}
	}
	if host != 2 {
		t.Fatalf("node 0's partition served by node %d, want cascade to 2", host)
	}
	// Two hosts died along the way: node 0 itself and node 1 mid-rerun.
	if got := rep.Metrics.Counter("jaws_node_crashes_total").Value(); got != 2 {
		t.Errorf("jaws_node_crashes_total = %d, want 2 (origin + cascade)", got)
	}
	// Node 1's own completed run is still kept (it died as a host, not on
	// its own schedule), so its query counts.
	if rep.Completed != 5 {
		t.Errorf("Completed = %d, want 5", rep.Completed)
	}
}

func TestRunAllReplicasDead(t *testing.T) {
	// Every replica in the chain crashes: the partition ends unserved and
	// the joined error names the dead node.
	cfg := testConfig(2)
	cfg.Replicas = 2
	cfg.Node.Fault = mustSpec(t, "crash@0:at=50ms;crash@1:at=50ms")
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []*job.Job{
		heavyJob(t, cfg, 1, 0),
		heavyJob(t, cfg, 2, 1),
	}
	rep, err := c.Run(jobs)
	if err == nil {
		t.Fatal("total cluster loss reported success")
	}
	for _, want := range []string{"cluster node 0", "cluster node 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
	if rep == nil || len(rep.PerNode) != 0 || rep.Completed != 0 {
		t.Fatalf("expected an empty partial report, got %+v", rep)
	}
	if len(rep.FailedNodes) != 2 {
		t.Errorf("FailedNodes = %v, want both", rep.FailedNodes)
	}
}

func TestRunJoinsNonCrashErrors(t *testing.T) {
	// A node failure that is not a crash (here: a node description naming
	// no cache policy, failing system construction) is joined per node and
	// never triggers failover — only fault.NodeCrashError does.
	cfg := testConfig(2)
	cfg.Replicas = 2
	cfg.Node.Policy = system.CachePolicy(99)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []*job.Job{
		mkClusterJob(1, nodeCenters(t, cfg, 0)[:1], job.Batched),
		mkClusterJob(2, nodeCenters(t, cfg, 1)[:1], job.Batched),
	}
	rep, err := c.Run(jobs)
	if err == nil {
		t.Fatal("unknown cache policy accepted")
	}
	for _, want := range []string{"cluster node 0", "cluster node 1", "cache policy"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
	if rep == nil || len(rep.PerNode) != 0 || rep.Failovers != 0 || len(rep.FailedNodes) != 0 {
		t.Fatalf("non-crash failure misreported: %+v", rep)
	}
}

func TestRunStoreOpenFailureJoined(t *testing.T) {
	// An invalid store (negative steps pass New's space validation but fail
	// store.Open inside runNode) is reported per node via errors.Join.
	cfg := testConfig(2)
	cfg.Node.Steps = -1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run([]*job.Job{mkClusterJob(1, nodeCenters(t, cfg, 0)[:1], job.Batched)})
	if err == nil || !strings.Contains(err.Error(), "cluster node 0") {
		t.Fatalf("store failure not attributed: %v", err)
	}
	if !strings.Contains(err.Error(), "time step") {
		t.Errorf("store cause lost: %v", err)
	}
	if rep == nil || rep.Completed != 0 {
		t.Fatalf("unexpected report %+v", rep)
	}
}

func TestNewRejectsBadReplicasAndSpace(t *testing.T) {
	cfg := testConfig(2)
	cfg.Replicas = 3
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "replicas") {
		t.Errorf("replicas > nodes accepted: %v", err)
	}
	cfg = testConfig(2)
	cfg.Node.Space = geom.Space{GridSide: 100, AtomSide: 32} // not divisible
	if _, err := New(cfg); err == nil {
		t.Error("invalid space accepted")
	}
	// Defaults: the node description's and Replicas fall back rather than
	// fail — the zero description is the paper's 512-atom step.
	c, err := New(Config{Nodes: 2})
	if err != nil {
		t.Fatalf("defaulting config rejected: %v", err)
	}
	if got := c.cfg.Node.Space.AtomsPerStep(); got != 512 || c.cfg.Replicas != 1 {
		t.Errorf("defaults: %d atoms per step, %d replicas; want 512, 1", got, c.cfg.Replicas)
	}
}

func TestPartitionerAccessors(t *testing.T) {
	if _, err := NewPartitionerStrategy(0, 64, Striped); err == nil {
		t.Error("zero nodes accepted")
	}
	p, err := NewPartitionerStrategy(4, 64, Striped)
	if err != nil {
		t.Fatal(err)
	}
	if p.nodes != 4 {
		t.Errorf("nodes = %d, want 4", p.nodes)
	}
}
