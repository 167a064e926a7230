// Cluster service: the deployment shape of Fig. 7 — data partitioned
// spatially across several nodes, each running its own JAWS instance, with
// a public web-service front end like the one the Turbulence database
// exposes to scientists.
//
// The example runs a generated batch workload across a simulated cluster
// (jaws.RunCluster) and prints the per-node and aggregate reports. The
// web-service half of the figure is cmd/jawsd, driven by cmd/jawsload; the
// example prints the two commands.
//
// go run ./examples/clusterservice
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"jaws"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the example: flags in, exit code out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clusterservice", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jobs  = fs.Int("jobs", 30, "jobs in the generated batch workload")
		nodes = fs.Int("nodes", 4, "cluster nodes")
		grid  = fs.Int("grid", 128, "grid side in voxels")
		steps = fs.Int("steps", 8, "stored time steps")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	space := jaws.Space{GridSide: *grid, AtomSide: 32}
	nodeCfg := jaws.Config{
		Space:      space,
		Steps:      *steps,
		Scheduler:  jaws.SchedJAWS1,
		Policy:     jaws.PolicyLRUK,
		CacheAtoms: 32,
	}

	w := jaws.GenerateWorkload(jaws.WorkloadConfig{
		Seed:  21,
		Steps: *steps,
		Jobs:  *jobs,
		Space: space,
	})
	rep, err := jaws.RunCluster(jaws.ClusterConfig{Nodes: *nodes, Node: nodeCfg}, w.Jobs)
	if err != nil {
		fmt.Fprintf(stderr, "clusterservice: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "cluster run: %d logical queries, makespan %.1f virtual s, %.2f q/s aggregate\n",
		rep.Completed, rep.MaxElapsed, rep.AggregateThroughput)
	for _, nr := range rep.PerNode {
		fmt.Fprintf(stdout, "  node %d: %4d queries, %.2f q/s, cache hit %.1f%%\n",
			nr.Node, nr.Report.Completed, nr.Report.ThroughputQPS,
			nr.Report.CacheStats.HitRatio()*100)
	}

	fmt.Fprintln(stdout, "\nthe web-service front end over such nodes is cmd/jawsd:")
	fmt.Fprintf(stdout, "  go run ./cmd/jawsd -addr 127.0.0.1:8080 -nodes %d -grid %d -steps %d\n", *nodes, *grid, *steps)
	fmt.Fprintf(stdout, "  go run ./cmd/jawsload -addr 127.0.0.1:8080 -steps %d\n", *steps)
	return 0
}
