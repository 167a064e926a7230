// Command jaws runs a workload through a single simulated Turbulence node
// under a chosen scheduler and prints the performance report.
//
// Usage:
//
//	jaws -sched jaws2 -jobs 200                 # generated workload
//	jaws -jobs 1000 -trace-save trace.json.gz   # archive the workload it ran
//	jaws -sched liferaft2 -trace trace.json.gz  # replay a saved trace
//	jaws -sched jaws2 -policy urc -k 10 -speedup 4
//
// Schedulers: noshare, liferaft1, liferaft2, jaws1, jaws2.
// Cache policies: lruk (or lru-k), slru, urc.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"jaws"
	"jaws/internal/system"
	"jaws/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command: flags in, exit code out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jaws", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sched, pol := jaws.SchedJAWS2, jaws.PolicyLRUK
	fs.TextVar(&sched, "sched", sched, "scheduler: "+strings.Join(jaws.SchedulerNames(), ", "))
	fs.TextVar(&pol, "policy", pol, "cache policy: "+strings.Join(jaws.CachePolicyNames(), ", "))
	var (
		tracePath = fs.String("trace", "", "replay a workload file written by -trace-save (otherwise generate)")
		traceSave = fs.String("trace-save", "", "save the workload this run uses to this file, for -trace to replay (.gz suffix enables compression)")
		jobs      = fs.Int("jobs", 200, "jobs to generate when no trace is given")
		seed      = fs.Int64("seed", 1, "workload and field seed")
		speedup   = fs.Float64("speedup", 1, "arrival speed-up (workload saturation)")
		batch     = fs.Int("k", 15, "JAWS batch size")
		alpha     = fs.Float64("alpha", 0.5, "initial age bias α")
		fixed     = fs.Bool("fixed-alpha", false, "disable adaptive starvation resistance")
		cacheAt   = fs.Int("cache", 256, "cache capacity in atoms")
		steps     = fs.Int("steps", 31, "stored time steps")
		compute   = fs.Bool("compute", false, "evaluate interpolation kernels for real")
		verbose   = fs.Bool("v", false, "print per-run adaptation history")
		rf        = system.BindRunFlags(fs, false)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	errf := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "jaws: "+format+"\n", a...)
		return 1
	}

	var w *jaws.Workload
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			return errf("%v", err)
		}
		w, err = workload.Load(f)
		f.Close()
		if err != nil {
			return errf("%v", err)
		}
	} else {
		w = jaws.GenerateWorkload(jaws.WorkloadConfig{
			Seed:    *seed,
			Jobs:    *jobs,
			Steps:   *steps,
			SpeedUp: *speedup,
		})
	}
	fmt.Fprintf(stdout, "workload: %s\n", workload.Describe(w))
	if *traceSave != "" {
		if err := saveWorkload(*traceSave, w); err != nil {
			return errf("%v", err)
		}
	}

	spec, err := rf.Fault()
	if err != nil {
		return errf("%v", err)
	}
	o, err := rf.Obs()
	if err != nil {
		return errf("%v", err)
	}

	sys, err := jaws.Open(jaws.Config{
		Steps:        *steps,
		Seed:         *seed,
		Scheduler:    sched,
		BatchSize:    *batch,
		InitialAlpha: *alpha,
		AlphaSet:     true,
		AdaptiveOff:  *fixed,
		Policy:       pol,
		TailPolicy:   rf.TailPolicy,
		CacheAtoms:   *cacheAt,
		Compute:      *compute,
		Obs:          o,
		Fault:        spec,
		FaultSeed:    rf.FaultSeed,
	})
	if err != nil {
		return errf("%v", err)
	}

	start := time.Now()
	rep, err := sys.Run(w.Jobs)
	if err != nil {
		return errf("%v", err)
	}
	wall := time.Since(start)

	fmt.Fprintf(stdout, "\nscheduler       %s (k=%d, α₀=%.2f adaptive=%v)\n", sched, *batch, *alpha, !*fixed)
	fmt.Fprintf(stdout, "cache policy    %s (%d atoms)\n", pol, *cacheAt)
	if rf.TailPolicy != "" {
		fmt.Fprintf(stdout, "tail policy     %s\n", rf.TailPolicy)
	}
	fmt.Fprintf(stdout, "completed       %d queries in %.1f virtual seconds (%.3f q/s)\n",
		rep.Completed, rep.Elapsed.Seconds(), rep.ThroughputQPS)
	fmt.Fprintf(stdout, "response time   mean %.3fs  p50 %.3fs  p95 %.3fs\n",
		rep.MeanResponse.Seconds(), rep.P50Response.Seconds(), rep.P95Response.Seconds())
	fmt.Fprintf(stdout, "cache           %.1f%% hit (%d hits / %d misses, %d evictions)\n",
		rep.CacheStats.HitRatio()*100, rep.CacheStats.Hits, rep.CacheStats.Misses, rep.CacheStats.Evictions)
	fmt.Fprintf(stdout, "disk            %d reads, %d sequential, %.1f GB, busy %.1fs\n",
		rep.DiskStats.Reads, rep.DiskStats.SeqReads,
		float64(rep.DiskStats.Bytes)/1e9, rep.DiskStats.BusyTime.Seconds())
	if sched == jaws.SchedJAWS2 {
		fmt.Fprintf(stdout, "gating          %d edges admitted, %d rejected\n", rep.GatingAdmitted, rep.GatingRejected)
	}
	if sched == jaws.SchedJAWS1 || sched == jaws.SchedJAWS2 {
		fmt.Fprintf(stdout, "final α         %.3f\n", rep.FinalAlpha)
	}
	fmt.Fprintf(stdout, "wall clock      %v\n", wall.Round(time.Millisecond))

	if *verbose {
		fmt.Fprintln(stdout, "\nrun  ended-at  mean-resp  throughput  alpha")
		for i, r := range rep.Runs {
			fmt.Fprintf(stdout, "%3d  %7.1fs  %8.3fs  %9.3f  %.3f\n",
				i, r.EndedAt.Seconds(), r.MeanRespSec, r.Throughput, r.Alpha)
		}
	}

	if err := rf.Finish(stdout, stdout); err != nil {
		return errf("%v", err)
	}
	return 0
}

// saveWorkload archives w at path for a later -trace run.
func saveWorkload(path string, w *jaws.Workload) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := workload.Save(f, w, strings.HasSuffix(path, ".gz")); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
