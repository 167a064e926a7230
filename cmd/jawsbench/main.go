// Command jawsbench regenerates the paper's evaluation tables and figures
// (§VI) against the simulated Turbulence node and prints them as text
// tables (with ASCII renderings of the figures) or CSV.
//
// Usage:
//
//	jawsbench -exp all            # every experiment
//	jawsbench -exp fig10          # one experiment: fig8 fig9 fig10
//	                              # fig11 fig12 table1 jobid ablation
//	jawsbench -exp fig12 -quick   # reduced scale for a fast smoke run
//	jawsbench -exp fig11 -format csv > fig11.csv
//
// The mapping from experiment IDs to paper results is documented in
// DESIGN.md §4; measured-versus-paper shapes are recorded in
// EXPERIMENTS.md.
//
// Benchmark trajectory mode (DESIGN.md §11) sidesteps the experiment
// tables and writes a versioned, byte-deterministic BENCH_*.json artifact:
//
//	jawsbench -bench-out bench-artifacts/BENCH_pr.json   # measure this tree (make bench)
//
// The workload scenario matrix (DESIGN.md §17) varies the arrival process
// and query-class mix without touching the scale:
//
//	jawsbench -list-scenarios                      # the registry, one per line
//	jawsbench -scenario poisson-box -bench-out BENCH_poisson-box.json   # re-record the committed file
//
// Tail policies (DESIGN.md §18) decorate the JAWS scheduler for the run;
// the artifact records the spec and its name gets a -tail suffix:
//
//	jawsbench -scenario fig8 -tail-policy 'gate-aware;adaptive-batch' -bench-out bench-artifacts/BENCH_fig8-tail.json
//
// The artifact is named after the scenario (jaws2 for the baseline trace).
// The committed artifacts and the arguments that produce each one are the
// table in artifacts_test.go; go test ./cmd/jawsbench/ regenerates them and
// fails on any byte that moved, printing the command that re-records it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"jaws/internal/bench"
	"jaws/internal/experiments"
	"jaws/internal/obs"
	"jaws/internal/system"
	"jaws/internal/textplot"
	"jaws/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// cli carries the per-invocation output streams and format so run is
// re-entrant under test.
type cli struct {
	stdout, stderr io.Writer
	asCSV          bool
}

// run is the testable body of the command: flags in, exit code out.
// Exit codes: 0 success, 1 runtime error, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	c := &cli{stdout: stdout, stderr: stderr}
	fs := flag.NewFlagSet("jawsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run: all, fig8, fig9, fig10, fig11, fig12, table1, jobid, alpha, ablation")
	quick := fs.Bool("quick", false, "use a reduced scale for a fast smoke run")
	jobs := fs.Int("jobs", 0, "override the number of jobs in the trace")
	seed := fs.Int64("seed", 0, "override the workload/field seed")
	format := fs.String("format", "text", "output format: text or csv")
	rf := system.BindRunFlags(fs, false)
	benchOut := fs.String("bench-out", "", "run the benchmark workload and write a BENCH_*.json artifact to this file (skips the experiment tables)")
	scenario := fs.String("scenario", "", "workload scenario overlay for experiments and benchmarks (see -list-scenarios); empty means the fig8 baseline")
	listScenarios := fs.Bool("list-scenarios", false, "list the workload scenario registry and exit")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address for profiling long runs (e.g. localhost:6060); empty disables")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *benchOut != "" {
		// The artifact run brings its own observers and writes no tables,
		// so these flags would be silently dropped.
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "exp", "format", "trace-out", "metrics":
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			fmt.Fprintf(stderr, "jawsbench: -bench-out cannot be combined with %s\n", strings.Join(ignored, ", "))
			return 2
		}
	}

	if *listScenarios {
		for _, s := range workload.Scenarios() {
			fmt.Fprintf(stdout, "%-12s  %s\n", s.Name, s.Description)
		}
		return 0
	}
	if *scenario != "" {
		if _, ok := workload.LookupScenario(*scenario); !ok {
			fmt.Fprintf(stderr, "jawsbench: unknown scenario %q (have: %s)\n",
				*scenario, strings.Join(workload.ScenarioNames(), ", "))
			return 2
		}
	}

	if *pprofAddr != "" {
		pp, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			return c.fail(err)
		}
		defer pp.Close()
		fmt.Fprintf(stdout, "pprof on http://%s/debug/pprof/\n", pp.Addr())
	}

	switch *format {
	case "text":
	case "csv":
		c.asCSV = true
	default:
		fmt.Fprintf(stderr, "jawsbench: unknown format %q\n", *format)
		return 2
	}

	scale := experiments.DefaultScale()
	if *quick {
		scale = experiments.TestScale()
	}
	scale.Scenario = *scenario
	scale.TailPolicy = rf.TailPolicy
	if *jobs > 0 {
		scale.Jobs = *jobs
	}
	if *seed != 0 {
		scale.Seed = *seed
	}
	var err error
	if scale.FaultSpec, err = rf.Fault(); err != nil {
		return c.fail(err)
	}
	scale.FaultSeed = rf.FaultSeed

	if *benchOut != "" {
		return c.benchMode(scale, *benchOut)
	}

	if scale.Obs, err = rf.Obs(); err != nil {
		return c.fail(err)
	}

	which := strings.ToLower(*exp)
	sel := func(name string) bool { return which == "all" || which == name }
	start := time.Now()
	any := false

	if sel("fig8") {
		any = true
		c.section("Fig. 8 — distribution of jobs by execution time")
		c.emit(&experiments.Fig8(scale).Table)
	}
	if sel("fig9") {
		any = true
		c.section("Fig. 9 — distribution of queries by time step accessed")
		r := experiments.Fig9(scale)
		c.emit(&r.Table)
		if !c.asCSV {
			series := textplot.Series{Label: "queries per step"}
			for step, c := range r.Counts {
				series.Append(float64(step), float64(c))
			}
			fmt.Fprintln(c.stdout)
			fmt.Fprint(c.stdout, textplot.LineChart([]textplot.Series{series}, 10))
		}
	}
	if sel("fig10") {
		any = true
		c.section("Fig. 10 — query throughput by scheduling algorithm")
		r, err := experiments.Fig10(scale)
		if err != nil {
			return c.fail(err)
		}
		c.emit(&r.Table)
		if !c.asCSV {
			labels := make([]string, len(r.Rows))
			values := make([]float64, len(r.Rows))
			for i, row := range r.Rows {
				labels[i] = row.Algorithm.String()
				values[i] = row.Throughput
			}
			fmt.Fprintln(c.stdout)
			fmt.Fprint(c.stdout, textplot.BarChart(labels, values, 40))
		}
	}
	if sel("fig11") {
		any = true
		c.section("Fig. 11 — sensitivity to workload saturation (a: throughput, b: response time)")
		r, err := experiments.Fig11(scale, nil)
		if err != nil {
			return c.fail(err)
		}
		c.emit(&r.Table)
		if !c.asCSV {
			fmt.Fprintln(c.stdout, "\n(a) throughput vs speed-up:")
			fmt.Fprint(c.stdout, textplot.LineChart(fig11Series(r, false), 10))
			fmt.Fprintln(c.stdout, "\n(b) mean response time vs speed-up:")
			fmt.Fprint(c.stdout, textplot.LineChart(fig11Series(r, true), 10))
		}
	}
	if sel("fig12") {
		any = true
		c.section("Fig. 12 — sensitivity to batch size k")
		r, err := experiments.Fig12(scale, nil)
		if err != nil {
			return c.fail(err)
		}
		c.emit(&r.Table)
		if !c.asCSV {
			s := textplot.Series{Label: "JAWS2 throughput by k"}
			base := textplot.Series{Label: "LifeRaft2 baseline"}
			for _, p := range r.Points {
				s.Append(float64(p.K), p.Throughput)
				base.Append(float64(p.K), r.LifeRaft2Baseline)
			}
			fmt.Fprintln(c.stdout)
			fmt.Fprint(c.stdout, textplot.LineChart([]textplot.Series{s, base}, 10))
		}
	}
	if sel("table1") {
		any = true
		c.section("Table I — cache replacement algorithms")
		r, err := experiments.Table1(scale)
		if err != nil {
			return c.fail(err)
		}
		c.emit(&r.Table)
	}
	if sel("jobid") {
		any = true
		c.section("§IV.A — job identification accuracy")
		c.emit(&experiments.JobID(scale).Table)
	}
	if sel("alpha") {
		any = true
		c.section("§V.A — adaptive age bias through changing saturation (burst / lull / burst)")
		r, err := experiments.AlphaDynamics(scale)
		if err != nil {
			return c.fail(err)
		}
		c.emit(&r.Table)
		if !c.asCSV {
			fmt.Fprintln(c.stdout)
			fmt.Fprint(c.stdout, r.Chart)
			fmt.Fprintf(c.stdout, "\nmin α during bursts: %.2f   max α during lull: %.2f\n",
				r.MinAlphaBurst, r.MaxAlphaLull)
		}
	}
	if sel("ablation") {
		any = true
		c.section("Ablations — design choices and §VII extensions")
		r, err := experiments.Ablations(scale)
		if err != nil {
			return c.fail(err)
		}
		c.emit(&r.Table)
	}

	if !any {
		fmt.Fprintf(stderr, "jawsbench: unknown experiment %q\n", *exp)
		fs.Usage()
		return 2
	}
	status := c.stdout
	if c.asCSV {
		status = io.Discard
	} else if rf.Tracer != nil {
		fmt.Fprintln(status)
	}
	if err := rf.Finish(status, c.stdout); err != nil {
		return c.fail(err)
	}
	if !c.asCSV {
		fmt.Fprintf(c.stdout, "\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// benchMode handles -bench-out: measure the tree and write the artifact,
// named after the scenario (jaws2 for the baseline trace) with a -tail
// suffix under a tail policy, so BENCH_fig8.json and BENCH_fig8-tail.json
// never overwrite each other.
func (c *cli) benchMode(scale experiments.Scale, outPath string) int {
	name := scale.Scenario
	if name == "" {
		name = "jaws2"
	}
	if scale.TailPolicy != "" {
		name += "-tail"
	}
	start := time.Now()
	a, err := bench.Run(scale, name)
	if err != nil {
		return c.fail(err)
	}
	fmt.Fprintf(c.stdout, "benchmark: %d queries, %.3f q/s, p95 %.1f ms, cache hit %.0f%% (measured in %v)\n",
		a.Completed, a.ThroughputQPS, a.P95ResponseMS, a.CacheHitRate*100,
		time.Since(start).Round(time.Millisecond))
	if err := a.WriteFile(outPath); err != nil {
		return c.fail(err)
	}
	fmt.Fprintf(c.stdout, "artifact: %s\n", outPath)
	return 0
}

// fig11Series groups the Fig. 11 grid into per-algorithm series.
func fig11Series(r *experiments.Fig11Result, respTime bool) []textplot.Series {
	order := []system.Scheduler{
		system.SchedNoShare, system.SchedLifeRaft1,
		system.SchedLifeRaft2, system.SchedJAWS2,
	}
	var out []textplot.Series
	for _, alg := range order {
		s := textplot.Series{Label: alg.String()}
		for _, p := range r.Points {
			if p.Algorithm != alg {
				continue
			}
			y := p.Throughput
			if respTime {
				y = p.MeanRespSec
			}
			s.Append(p.SpeedUp, y)
		}
		out = append(out, s)
	}
	return out
}

func (c *cli) emit(t *textplot.Table) {
	if c.asCSV {
		fmt.Fprint(c.stdout, t.CSV())
		return
	}
	fmt.Fprint(c.stdout, t.String())
}

func (c *cli) section(title string) {
	if c.asCSV {
		fmt.Fprintf(c.stdout, "# %s\n", title)
		return
	}
	fmt.Fprintf(c.stdout, "\n== %s ==\n\n", title)
}

func (c *cli) fail(err error) int {
	fmt.Fprintf(c.stderr, "jawsbench: %v\n", err)
	return 1
}
