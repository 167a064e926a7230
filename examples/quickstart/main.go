// Quickstart: open a simulated Turbulence node, generate a small workload
// with the trace generator, run it under full JAWS scheduling, and print
// the headline numbers.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"jaws"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run compares JAWS with the arrival-order baseline on one workload.
func run(out io.Writer) error {
	// A small store: 8 time steps of 128³ voxels in 32³-voxel atoms.
	sys, err := jaws.Open(jaws.Config{
		Space:      jaws.Space{GridSide: 128, AtomSide: 32},
		Steps:      8,
		Scheduler:  jaws.SchedJAWS2, // two-level + adaptive α + job-aware gating
		Policy:     jaws.PolicySLRU,
		CacheAtoms: 32,
	})
	if err != nil {
		return err
	}

	// A synthetic trace with the production log's shape: mostly ordered
	// jobs (particle-tracking style sequences with data dependencies).
	w := jaws.GenerateWorkload(jaws.WorkloadConfig{
		Seed:  7,
		Steps: 8,
		Jobs:  40,
	})
	fmt.Fprintf(out, "running %d queries from %d jobs...\n", w.TotalQueries(), len(w.Jobs))

	report, err := sys.Run(w.Jobs)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "throughput      %.2f queries/second (virtual time)\n", report.ThroughputQPS)
	fmt.Fprintf(out, "mean response   %.3f s\n", report.MeanResponse.Seconds())
	fmt.Fprintf(out, "cache hit       %.1f%%\n", report.CacheStats.HitRatio()*100)
	fmt.Fprintf(out, "gating edges    %d admitted\n", report.GatingAdmitted)
	fmt.Fprintf(out, "final age bias  α = %.2f\n", report.FinalAlpha)

	// The same workload under the arrival-order baseline, for contrast.
	base, err := jaws.Open(jaws.Config{
		Space:      jaws.Space{GridSide: 128, AtomSide: 32},
		Steps:      8,
		Scheduler:  jaws.SchedNoShare,
		CacheAtoms: 32,
	})
	if err != nil {
		return err
	}
	w2 := jaws.GenerateWorkload(jaws.WorkloadConfig{Seed: 7, Steps: 8, Jobs: 40})
	baseline, err := base.Run(w2.Jobs)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nNoShare baseline: %.2f q/s — JAWS speedup %.2fx\n",
		baseline.ThroughputQPS, report.ThroughputQPS/baseline.ThroughputQPS)
	return nil
}
