// Command jawscheck runs the scheduler correctness oracle: randomized
// workloads are captured on the real engine and replayed through the
// reference models of internal/oracle, diffing every scheduling decision,
// checking run invariants, and shrinking any divergence to a minimal
// reproducer.
//
// Usage:
//
//	jawscheck                     # 624 differential runs: (34 seeds × (3 standard + 2 churn + 3 matrix + 1 tail) + 6 compose) × ±faults
//	jawscheck -seeds 100 -v       # more seeds, one report line per run
//	jawscheck -no-faults          # clean-run pass only
//
// Exit codes: 0 all runs agree, 1 divergence or invariant violation,
// 2 usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"jaws/internal/oracle"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command: flags in, exit code out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jawscheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seeds := fs.Int("seeds", 34, "seeds per algorithm (each runs with and without a fault schedule)")
	noFaults := fs.Bool("no-faults", false, "skip the fault-schedule pass")
	verbose := fs.Bool("v", false, "print one line per differential run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seeds <= 0 {
		fmt.Fprintln(stderr, "jawscheck: -seeds must be positive")
		return 2
	}

	start := time.Now()
	var failed []*oracle.SeedResult
	report := func(r *oracle.SeedResult) {
		if *verbose || !r.Ok() {
			fmt.Fprintf(stdout, "%s\n", r)
		}
		if !r.Ok() {
			failed = append(failed, r)
		}
	}
	results, err := oracle.Suite(*seeds, !*noFaults, report)
	if err != nil {
		fmt.Fprintf(stderr, "jawscheck: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "\n%d differential runs in %v: %d diverged\n",
		len(results), time.Since(start).Round(time.Millisecond), len(failed))
	if len(failed) == 0 {
		return 0
	}

	for _, r := range failed {
		if r.Divergence != nil {
			fmt.Fprintf(stdout, "\n%v seed %d fault %q:\n  %v\n", r.Algo, r.Seed, r.FaultSpec, r.Divergence)
			printReproducer(stdout, r)
		}
		for _, v := range r.Violations {
			fmt.Fprintf(stdout, "\n%v seed %d fault %q:\n  invariant: %s\n", r.Algo, r.Seed, r.FaultSpec, v)
		}
	}
	return 1
}

// printReproducer re-captures the diverging run and shrinks its op log to
// a minimal reproducer.
func printReproducer(w io.Writer, r *oracle.SeedResult) {
	cfg, p := oracle.ProfileParams(r.Profile, r.Algo, r.Seed)
	cfg.FaultSpec = r.FaultSpec
	cfg.FaultSeed = r.Seed
	c, err := oracle.Run(cfg)
	if err != nil {
		fmt.Fprintf(w, "  (recapture failed: %v)\n", err)
		return
	}
	shrunk := oracle.Shrink(oracle.StandardTarget(r.Algo, p), c.Log)
	fmt.Fprintf(w, "  minimal reproducer (%d ops, from %d):\n", len(shrunk.Ops), len(c.Log.Ops))
	for i, op := range shrunk.Ops {
		switch op.Kind {
		case oracle.OpEnqueue:
			fmt.Fprintf(w, "    %2d: enqueue %v (query %d) at %v\n", i, op.Sub.Atom, op.Sub.Query.ID, op.Now)
		case oracle.OpDecision:
			fmt.Fprintf(w, "    %2d: decision at %v (%d resident)\n", i, op.Now, len(op.Resident))
		case oracle.OpRunEnd:
			fmt.Fprintf(w, "    %2d: run-end rt=%.4f tp=%.4f\n", i, op.RT, op.TP)
		}
	}
}
