// Package cluster models the multi-node Turbulence architecture of
// Fig. 7: data are partitioned spatially across nodes, each node runs its
// own JAWS instance (scheduler + cache + disk array), incoming queries are
// split by the partitioner so every node only touches its own atoms, and
// per-node results are combined.
//
// Simulation scope: each node advances its own virtual clock, and the
// nodes execute concurrently in real goroutines. Ordered jobs are split
// into per-node ordered jobs (sequence preserved within each node), which
// matches the deployment reality that cross-node queries synchronize at
// the mediator, not inside the per-node schedulers.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"jaws/internal/engine"
	"jaws/internal/fault"
	"jaws/internal/geom"
	"jaws/internal/job"
	"jaws/internal/query"
	"jaws/internal/store"
	"jaws/internal/system"
)

// Partitioner maps atoms to nodes in contiguous Morton ranges, so each
// node owns a spatially compact region (the shaded regions of Fig. 7): a
// job's queries concentrate on one node and per-node batching stays
// effective.
type Partitioner struct {
	nodes        int
	atomsPerStep int
}

// NewPartitioner splits each step's atomsPerStep atoms evenly among n
// nodes.
func NewPartitioner(n, atomsPerStep int) (*Partitioner, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", n)
	}
	if atomsPerStep <= 0 || atomsPerStep%n != 0 {
		return nil, fmt.Errorf("cluster: atoms per step %d not divisible by %d nodes", atomsPerStep, n)
	}
	return &Partitioner{nodes: n, atomsPerStep: atomsPerStep}, nil
}

// NodeOf returns the node owning the atom.
func (p *Partitioner) NodeOf(id store.AtomID) int {
	return int(id.Code) * p.nodes / p.atomsPerStep
}

// Config assembles a cluster.
type Config struct {
	// Nodes is the number of database nodes; atoms per step must divide
	// evenly among them.
	Nodes int
	// Node describes every node: each builds its own system from it (all
	// share the synthetic field seed, so the cluster presents one coherent
	// dataset) with Node.Node set to its index, so its Fault schedule's
	// '@node' rules address cluster nodes and each node draws its own
	// stream from FaultSeed. Node.Obs, when set, is shared by every node
	// run, a crashed run's and a failover rerun's too: its registry and
	// span aggregator are safe for concurrent use.
	Node system.Config
	// Replicas is the data replication factor: each node's partition is
	// also readable on the Replicas-1 nodes that follow it (mod Nodes),
	// and the mediator reruns a crashed node's jobs on the first live
	// replica. 0 or 1 disables failover.
	Replicas int
}

// NodeReport pairs an executed engine run with the node that hosted it.
type NodeReport struct {
	// Node is the node that executed the run.
	Node int
	// For is the node whose partition the run served. It differs from
	// Node only for failover reruns of a crashed node's jobs.
	For    int
	Report *engine.Report
}

// Report aggregates a cluster run.
type Report struct {
	PerNode []NodeReport
	// Completed counts distinct logical queries completed (a query split
	// across nodes counts once). Queries owned by a node that crashed
	// without a surviving replica are not counted.
	Completed int
	// MaxElapsed is the slowest node's virtual time — the cluster's
	// makespan. A node hosting failover reruns accumulates their elapsed
	// time on top of its own.
	MaxElapsed float64
	// AggregateThroughput is completed / MaxElapsed.
	AggregateThroughput float64
	// Failovers counts crashed nodes whose jobs a replica successfully
	// reran; FailedNodes lists nodes whose partitions ended unserved.
	Failovers   int
	FailedNodes []int
}

// Cluster is a set of simulated nodes behind a partitioner.
type Cluster struct {
	cfg  Config
	part *Partitioner
}

// New validates what the mediator itself reads: node count, replication
// factor, partitioned space. The rest of the node description is validated
// where a node is built, so a bad one is a per-node error of Run.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Replicas > cfg.Nodes {
		return nil, fmt.Errorf("cluster: %d replicas exceed %d nodes", cfg.Replicas, cfg.Nodes)
	}
	cfg.Node = cfg.Node.WithDefaults()
	if err := cfg.Node.Space.Validate(); err != nil {
		return nil, err
	}
	part, err := NewPartitioner(cfg.Nodes, cfg.Node.Space.AtomsPerStep())
	if err != nil {
		return nil, err
	}
	return &Cluster{cfg: cfg, part: part}, nil
}

// SplitJob routes one job's queries across nodes: each query's positions
// are divided by owning node, producing at most one per-node job that
// preserves the original query order. The returned map holds only nodes
// that received work.
func (c *Cluster) SplitJob(j *job.Job) map[int]*job.Job {
	space := c.cfg.Node.Space
	out := make(map[int]*job.Job)
	seqPerNode := make(map[int]int)
	for _, q := range j.Queries {
		perNode := make(map[int][]int) // node -> indices into q.Points
		for i, p := range q.Points {
			id := store.AtomID{Step: q.Step, Code: space.AtomOf(p).Code()}
			n := c.part.NodeOf(id)
			perNode[n] = append(perNode[n], i)
		}
		// Deterministic node order.
		nodes := make([]int, 0, len(perNode))
		for n := range perNode {
			nodes = append(nodes, n)
		}
		sort.Ints(nodes)
		for _, n := range nodes {
			nj, ok := out[n]
			if !ok {
				nj = &job.Job{
					ID:        j.ID,
					User:      j.User,
					Type:      j.Type,
					ThinkTime: j.ThinkTime,
				}
				out[n] = nj
			}
			// A copy keeps every field of the query (a derivative chain's
			// DerivSteps, the serving request's ReqID); only its place in
			// the per-node job and its positions are the node's own.
			sub := *q
			sub.Seq = seqPerNode[n]
			sub.Points = make([]geom.Position, 0, len(perNode[n]))
			for _, i := range perNode[n] {
				sub.Points = append(sub.Points, q.Points[i])
			}
			nj.Queries = append(nj.Queries, &sub)
			seqPerNode[n]++
		}
	}
	return out
}

// split routes every job across nodes. Each call produces fresh per-node
// query copies, so a rerun (failover, or a deterministic replay of the
// whole cluster) never sees arrival times a previous engine run mutated.
func (c *Cluster) split(jobs []*job.Job) map[int][]*job.Job {
	perNode := make(map[int][]*job.Job)
	for _, j := range jobs {
		for n, nj := range c.SplitJob(j) {
			perNode[n] = append(perNode[n], nj)
		}
	}
	return perNode
}

// runNode executes njobs on one node: a fresh system built from the node
// description as node `node`.
func (c *Cluster) runNode(node int, njobs []*job.Job) (*engine.Report, error) {
	cfg := c.cfg.Node
	cfg.Node = node
	sys, err := system.Open(cfg)
	if err != nil {
		return nil, err
	}
	return sys.Run(njobs)
}

// Run splits the jobs, executes every node concurrently, and aggregates.
//
// Node failures do not discard the healthy nodes' work: crashed nodes
// (fault.NodeCrashError) have their full job lists rerun on the first
// surviving replica when Config.Replicas > 1, and any failures that
// remain are joined into the returned error alongside a partial Report
// covering the nodes that did complete. The report is non-nil whenever
// the split itself succeeded, even if every node failed.
func (c *Cluster) Run(jobs []*job.Job) (*Report, error) {
	perNode := c.split(jobs)
	// owners maps each logical query to the nodes holding a piece of it;
	// the query counts as completed only when all of them served.
	owners := make(map[query.ID]map[int]bool)
	for n, njobs := range perNode {
		for _, nj := range njobs {
			for _, q := range nj.Queries {
				if owners[q.ID] == nil {
					owners[q.ID] = make(map[int]bool)
				}
				owners[q.ID][n] = true
			}
		}
	}

	type result struct {
		node int
		rep  *engine.Report
		err  error
	}
	var wg sync.WaitGroup
	results := make(chan result, c.cfg.Nodes)
	for n := 0; n < c.cfg.Nodes; n++ {
		njobs := perNode[n]
		if len(njobs) == 0 {
			continue
		}
		wg.Add(1)
		go func(n int, njobs []*job.Job) {
			defer wg.Done()
			rep, err := c.runNode(n, njobs)
			results <- result{node: n, rep: rep, err: err}
		}(n, njobs)
	}
	wg.Wait()
	close(results)

	rep := &Report{}
	served := make(map[int]bool)  // partition → fully executed by someone
	crashed := make(map[int]bool) // node → injector killed it (dead host)
	hostElapsed := make(map[int]float64)
	var toFailover []int
	var errs []error

	keep := func(host, forNode int, r *engine.Report) {
		served[forNode] = true
		rep.PerNode = append(rep.PerNode, NodeReport{Node: host, For: forNode, Report: r})
		hostElapsed[host] += r.Elapsed.Seconds()
	}

	for r := range results {
		var crash *fault.NodeCrashError
		switch {
		case r.err == nil:
			keep(r.node, r.node, r.rep)
		case errors.As(r.err, &crash):
			// The run died mid-flight: discard its partial report
			// entirely (exactly-once accounting) and line the partition
			// up for failover.
			crashed[r.node] = true
			toFailover = append(toFailover, r.node)
		default:
			errs = append(errs, fmt.Errorf("cluster node %d: %w", r.node, r.err))
		}
	}

	// Failover: rerun each dead node's full job list on its first live
	// replica, cascading down the replica chain if a rerun crashes too.
	// Reruns are sequential in node order so replays are deterministic.
	sort.Ints(toFailover)
	for _, dead := range toFailover {
		var lastErr error
		for k := 1; k < c.cfg.Replicas && !served[dead]; k++ {
			host := (dead + k) % c.cfg.Nodes
			if crashed[host] {
				continue
			}
			// Fresh split: the crashed run mutated its copies' arrivals.
			njobs := c.split(jobs)[dead]
			frep, err := c.runNode(host, njobs)
			var crash *fault.NodeCrashError
			switch {
			case err == nil:
				keep(host, dead, frep)
				rep.Failovers++
			case errors.As(err, &crash):
				// The replica's own schedule killed this rerun; the host
				// is dead for everyone from here on.
				crashed[host] = true
				lastErr = err
			default:
				lastErr = err
			}
		}
		if !served[dead] {
			rep.FailedNodes = append(rep.FailedNodes, dead)
			if lastErr == nil {
				lastErr = fmt.Errorf("node crashed (replicas=%d)", c.cfg.Replicas)
			}
			errs = append(errs, fmt.Errorf("cluster node %d: no surviving replica: %w", dead, lastErr))
		}
	}

	for _, own := range owners {
		all := true
		for n := range own {
			if !served[n] {
				all = false
				break
			}
		}
		if all {
			rep.Completed++
		}
	}
	for _, e := range hostElapsed {
		if e > rep.MaxElapsed {
			rep.MaxElapsed = e
		}
	}
	sort.Slice(rep.PerNode, func(i, j int) bool {
		if rep.PerNode[i].Node != rep.PerNode[j].Node {
			return rep.PerNode[i].Node < rep.PerNode[j].Node
		}
		return rep.PerNode[i].For < rep.PerNode[j].For
	})
	if rep.MaxElapsed > 0 {
		rep.AggregateThroughput = float64(rep.Completed) / rep.MaxElapsed
	}
	return rep, errors.Join(errs...)
}
