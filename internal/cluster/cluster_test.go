package cluster

import (
	"testing"
	"time"

	"jaws/internal/field"
	"jaws/internal/geom"
	"jaws/internal/job"
	"jaws/internal/morton"
	"jaws/internal/obs"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/store"
	"jaws/internal/system"
)

var testCost = sched.CostModel{Tb: 40 * time.Millisecond, Tm: 20 * time.Microsecond}

// testConfig is a cluster of tiny nodes: JAWS without gating at fixed
// α = 0 over an 8-atom LRU cache.
func testConfig(nodes int) Config {
	return Config{
		Nodes: nodes,
		Node: system.Config{
			Space:       geom.Space{GridSide: 128, AtomSide: 32}, // 64 atoms/step
			Steps:       2,
			SampleSide:  4,
			Seed:        3,
			Scheduler:   system.SchedJAWS1,
			BatchSize:   4,
			AlphaSet:    true,
			AdaptiveOff: true,
			Policy:      system.PolicyLRUK,
			CacheAtoms:  8,
			Cost:        testCost,
		},
	}
}

func TestNewValidation(t *testing.T) {
	cfg := testConfig(4)
	cfg.Nodes = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero nodes accepted")
	}
	cfg = testConfig(3) // 64 atoms not divisible by 3
	if _, err := New(cfg); err == nil {
		t.Fatal("indivisible partition accepted")
	}
}

func TestPartitionerContiguousAndBalanced(t *testing.T) {
	p, err := NewPartitioner(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	prev := 0
	for c := 0; c < 64; c++ {
		n := p.NodeOf(store.AtomID{Step: 0, Code: morton.Code(c)})
		if n < 0 || n >= 4 {
			t.Fatalf("atom %d mapped to node %d", c, n)
		}
		if n < prev {
			t.Fatal("partition not contiguous in Morton order")
		}
		prev = n
		counts[n]++
	}
	for n, c := range counts {
		if c != 16 {
			t.Fatalf("node %d owns %d atoms, want 16", n, c)
		}
	}
	// Step must not affect ownership (partitioning is spatial).
	a := p.NodeOf(store.AtomID{Step: 0, Code: 5})
	b := p.NodeOf(store.AtomID{Step: 9, Code: 5})
	if a != b {
		t.Fatal("partition varies with time step")
	}
}

func mkClusterJob(id int64, pts []geom.Position, typ job.Type) *job.Job {
	j := &job.Job{ID: id, User: 1, Type: typ, ThinkTime: time.Millisecond}
	j.Queries = []*query.Query{{
		ID: query.ID(id), JobID: id, Seq: 0, Step: 0,
		Points: pts, Kernel: field.KernelNone, Arrival: 0,
	}}
	return j
}

func TestSplitJobRoutesByPartition(t *testing.T) {
	c, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	space := testConfig(4).Node.Space
	// One point in the very first atom (node 0), one in the last (node 3).
	atomLen := float64(space.AtomSide) * space.VoxelSize()
	pts := []geom.Position{
		{X: 0.5 * atomLen, Y: 0.5 * atomLen, Z: 0.5 * atomLen},
		{X: 3.5 * atomLen, Y: 3.5 * atomLen, Z: 3.5 * atomLen},
	}
	split := c.SplitJob(mkClusterJob(1, pts, job.Batched))
	if len(split) != 2 {
		t.Fatalf("split across %d nodes, want 2", len(split))
	}
	total := 0
	for n, nj := range split {
		for _, q := range nj.Queries {
			total += len(q.Points)
			for _, p := range q.Points {
				id := store.AtomID{Step: 0, Code: space.AtomOf(p).Code()}
				if c.part.NodeOf(id) != n {
					t.Fatalf("point routed to wrong node %d", n)
				}
			}
		}
	}
	if total != 2 {
		t.Fatalf("split lost points: %d", total)
	}
}

func TestSplitJobPreservesOrderedSequence(t *testing.T) {
	c, _ := New(testConfig(2))
	space := testConfig(2).Node.Space
	atomLen := float64(space.AtomSide) * space.VoxelSize()
	j := &job.Job{ID: 5, User: 1, Type: job.Ordered, ThinkTime: time.Millisecond}
	for i := 0; i < 3; i++ {
		j.Queries = append(j.Queries, &query.Query{
			ID: query.ID(100 + i), JobID: 5, Seq: i, Step: 0,
			Points: []geom.Position{{X: 0.5 * atomLen, Y: 0.5 * atomLen, Z: 0.5 * atomLen}},
			Kernel: field.KernelNone,
		})
	}
	j.Queries[0].Arrival = 0
	split := c.SplitJob(j)
	if len(split) != 1 {
		t.Fatalf("single-region ordered job split across %d nodes", len(split))
	}
	for _, nj := range split {
		if err := nj.Validate(); err != nil {
			t.Fatalf("split job invalid: %v", err)
		}
		for i, q := range nj.Queries {
			if q.Seq != i {
				t.Fatal("per-node sequence not renumbered")
			}
		}
	}
}

func TestRunAggregates(t *testing.T) {
	c, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	space := testConfig(4).Node.Space
	atomLen := float64(space.AtomSide) * space.VoxelSize()
	var jobs []*job.Job
	for id := int64(1); id <= 8; id++ {
		x := float64(id%4) + 0.5
		pts := []geom.Position{
			{X: x * atomLen, Y: 0.5 * atomLen, Z: 0.5 * atomLen},
			{X: x * atomLen, Y: 1.5 * atomLen, Z: 2.5 * atomLen},
		}
		jobs = append(jobs, mkClusterJob(id, pts, job.Batched))
	}
	rep, err := c.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 8 {
		t.Fatalf("Completed = %d, want 8 logical queries", rep.Completed)
	}
	if len(rep.PerNode) == 0 || rep.MaxElapsed <= 0 || rep.AggregateThroughput <= 0 {
		t.Fatalf("bad aggregate report: %+v", rep)
	}
	// Per-node reports sorted by node.
	for i := 1; i < len(rep.PerNode); i++ {
		if rep.PerNode[i-1].Node >= rep.PerNode[i].Node {
			t.Fatal("per-node reports unsorted")
		}
	}
}

// TestRunLabelsFlightRecordsByNode: nodes that share one flight recorder
// label their decision records with their own index, so the shared trace
// splits back into per-node timelines (every record read node 0 while the
// cluster wired its engines by hand).
func TestRunLabelsFlightRecordsByNode(t *testing.T) {
	cfg := testConfig(2)
	rec := obs.NewFlightRecorder(true, nil, nil)
	cfg.Node.Obs = &obs.Obs{Flight: rec}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	space := cfg.Node.Space
	var jobs []*job.Job
	for id, code := range []morton.Code{0, 63} { // one atom in each node's half
		jobs = append(jobs, mkClusterJob(int64(id+1), []geom.Position{space.Center(geom.AtomFromCode(code))}, job.Batched))
	}
	if _, err := c.Run(jobs); err != nil {
		t.Fatal(err)
	}
	perNode := map[int]int{}
	for _, r := range rec.Records() {
		perNode[r.Engine]++
	}
	if len(perNode) != 2 || perNode[0] == 0 || perNode[1] == 0 {
		t.Fatalf("decision records per engine label = %v, want some under 0 and some under 1", perNode)
	}
}

func TestRunSingleNodeEqualsEngine(t *testing.T) {
	// A 1-node cluster must behave like a plain engine run.
	c, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	space := testConfig(1).Node.Space
	atomLen := float64(space.AtomSide) * space.VoxelSize()
	jobs := []*job.Job{mkClusterJob(1, []geom.Position{
		{X: 0.5 * atomLen, Y: 0.5 * atomLen, Z: 0.5 * atomLen},
	}, job.Batched)}
	rep, err := c.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerNode) != 1 || rep.PerNode[0].Report.Completed != 1 {
		t.Fatalf("unexpected report %+v", rep)
	}
}

func TestRunParallelismMatchesSequential(t *testing.T) {
	// Cluster results are deterministic despite concurrent node execution.
	run := func() *Report {
		c, err := New(testConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		space := testConfig(4).Node.Space
		atomLen := float64(space.AtomSide) * space.VoxelSize()
		var jobs []*job.Job
		for id := int64(1); id <= 12; id++ {
			x := float64(id%4) + 0.2
			jobs = append(jobs, mkClusterJob(id, []geom.Position{
				{X: x * atomLen, Y: float64(id%3) * atomLen, Z: 0.5 * atomLen},
			}, job.Batched))
		}
		rep, err := c.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.MaxElapsed != b.MaxElapsed || a.AggregateThroughput != b.AggregateThroughput {
		t.Fatalf("cluster runs not deterministic: %+v vs %+v", a, b)
	}
}

func TestCompactJobStaysOnOneNode(t *testing.T) {
	// A compact job (all points in one octant) touches a single node under
	// the contiguous partition.
	cfg := testConfig(4)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	space := cfg.Node.Space
	atomLen := float64(space.AtomSide) * space.VoxelSize()
	var pts []geom.Position
	for i := 0; i < 8; i++ {
		pts = append(pts, geom.Position{
			X: (0.1 + 0.2*float64(i%2)) * atomLen,
			Y: (0.1 + 0.2*float64(i/2%2)) * atomLen,
			Z: (0.1 + 0.3*float64(i/4)) * atomLen,
		})
	}
	// Spread the points across the octant's 8 atoms.
	for i := range pts {
		pts[i].X += float64(i%2) * atomLen
		pts[i].Y += float64(i/2%2) * atomLen
		pts[i].Z += float64(i/4%2) * atomLen
	}
	if n := len(c.SplitJob(mkClusterJob(1, pts, job.Batched))); n != 1 {
		t.Fatalf("octant job split across %d nodes under contiguous partitioning, want 1", n)
	}
}
