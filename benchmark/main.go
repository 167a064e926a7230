// Command benchmark is the repository's wall-clock benchmark: it drives a
// real cmd/jawsd subprocess and the public jaws facade through five named
// workloads and reports what a user of the system sees (throughput,
// latency, CPU, allocations and retained heap per query, set-up time) and,
// in a separate traced run, what each layer contributes. See README.md.
//
// Usage (from the repository root; run.sh builds jawsd and this program):
//
//	bash benchmark/run.sh                        # all workloads, end to end
//	bash benchmark/run.sh -trace 1               # all workloads, layer by layer
//	bash benchmark/run.sh -workload serve-hot -seed 7 -seconds 16
//	bash benchmark/run.sh -runs 5 -out base.json # repeated runs, saved
//	bash benchmark/run.sh -compare base.json head.json
//	bash benchmark/run.sh -regen                 # rewrite testdata/golden.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics, summed over the workloads run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// defaultSeconds is BENCHMARK.json's run_seconds: the length every
// calibrated number in README.md was measured at.
const defaultSeconds = 16

// workloadNames lists the workloads in reporting order.
func workloadNames() []string {
	var names []string
	for _, s := range serveSpecs {
		names = append(names, s.name)
	}
	for _, s := range replaySpecs {
		names = append(names, s.name)
	}
	return names
}

// runWorkload dispatches one named workload, end to end or traced.
func runWorkload(name string, traced bool, o options) (*outcome, error) {
	for _, s := range serveSpecs {
		if s.name == name {
			if traced {
				return traceServe(s, o)
			}
			return runServe(s, o)
		}
	}
	for _, s := range replaySpecs {
		if s.name == name {
			if traced {
				return traceReplay(s, o)
			}
			return runReplay(s, o)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have: %s)", name, strings.Join(workloadNames(), ", "))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run (default: all five)")
		seed     = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", defaultSeconds, "how long one run measures")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, harness tracing off; 1: per-layer metrics from the traced run")
		traceOut = fs.String("trace-out", "", "with -trace 1: write the spans as JSONL to this file (default: .bench_build/spans-<workload>.jsonl)")
		root     = fs.String("root", "", "repository root (default: the directory holding BENCHMARK.json, here or one up)")
		jawsd    = fs.String("jawsd", "", "built jawsd binary (default: <root>/.bench_build/jawsd, which run.sh builds)")
		runs     = fs.Int("runs", 1, "repeat every workload this many times (for -out)")
		outPath  = fs.String("out", "", "write the machine-readable result of every run to this file")
		compare  = fs.Bool("compare", false, "compare two -out files: benchmark -compare base.json head.json")
		regen    = fs.Bool("regen", false, "rewrite testdata/golden.json from this tree and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	errf := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "benchmark: "+format+"\n", a...)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return errf("-compare takes two result files, got %d", fs.NArg())
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		return errf("unexpected argument %q", fs.Arg(0))
	}
	if *root == "" {
		*root = "."
		if _, err := os.Stat("BENCHMARK.json"); err != nil {
			*root = ".."
		}
	}
	if *jawsd == "" {
		*jawsd = filepath.Join(*root, ".bench_build", "jawsd")
	}
	if *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		return errf("need -seconds > 0, -runs >= 1 and -trace 0 or 1")
	}
	o := options{root: *root, jawsd: *jawsd, seed: *seed, seconds: *seconds, scale: 1, traceOut: *traceOut}
	if *regen {
		if err := regenGolden(o, stderr); err != nil {
			return errf("%v", err)
		}
		return 0
	}

	names := workloadNames()
	if *workload != "" {
		names = []string{*workload}
	}
	traced := *trace == 1
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Env: readEnv(*root), Seconds: *seconds, Traced: traced}
	for _, name := range names {
		for i := 0; i < *runs; i++ {
			steal, began := hostSteal(), time.Now()
			out, err := runWorkload(name, traced, o)
			if err != nil {
				return errf("%s: %v", name, err)
			}
			// Time-based figures of a run the hypervisor interrupted say
			// more about the neighbours than about the program.
			if share := ratio((hostSteal() - steal).Seconds(), time.Since(began).Seconds()*float64(runtime.NumCPU())); share > 0.02 {
				out.note("DISTURBED: the host stole %.1f %% of this machine's CPU time during the run", share*100)
			}
			if err := out.Metrics.checkFinite(); err != nil {
				return errf("%s: %v", name, err)
			}
			printOutcome(stdout, out, traced)
			res.Runs = append(res.Runs, out)
		}
	}
	if *outPath != "" {
		if err := res.write(*outPath); err != nil {
			return errf("%v", err)
		}
	}
	line := res.contractLine(defs)
	b, err := json.Marshal(line)
	if err != nil {
		return errf("%v", err)
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !line.Correct {
		return 1
	}
	return 0
}

// result is the machine-readable record of one invocation (-out), the
// input of -compare.
type result struct {
	Env     envHeader  `json:"env"`
	Seconds float64    `json:"seconds"`
	Traced  bool       `json:"traced"`
	Runs    []*outcome `json:"runs"`
}

func (r *result) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// contract is the object the last line of standard output carries.
type contract struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// contractLine folds the invocation into one object. With one workload
// (how the driver calls) the metrics are that run's; with several, each
// metric is the median over the runs it applies to.
func (r *result) contractLine(defs []metricDef) contract {
	c := contract{Correct: true}
	per := map[string][]float64{}
	for _, out := range r.Runs {
		c.Correct = c.Correct && out.Correct
		c.Attempted += out.Attempted
		c.Failed += out.Failed
		for name, v := range out.Metrics {
			per[name] = append(per[name], v)
		}
	}
	m := metricSet{}
	for name, vs := range per {
		m[name] = median(vs)
	}
	c.Metrics = m.render(defs)
	return c
}

// printOutcome prints one run as a table: every metric by name with its
// value and unit, n/a where it does not apply, then the run's notes.
func printOutcome(w io.Writer, out *outcome, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	verdict := "correct"
	if !out.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s: %d attempted, %d failed\n", out.Workload, out.Seed, verdict, out.Attempted, out.Failed)
	row := func(d metricDef) {
		if v, ok := out.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-28s %14.4f %s\n", d.Name, v, d.Unit)
		} else {
			fmt.Fprintf(w, "  %-28s %14s %s\n", d.Name, "n/a", d.Unit)
		}
	}
	for _, d := range defs {
		row(d)
	}
	if !traced {
		fmt.Fprintf(w, "  time-based, reported but not gated by BENCHMARK.json:\n")
		for _, d := range timed {
			row(d)
		}
	}
	for _, n := range out.Notes {
		fmt.Fprintf(w, "  - %s\n", n)
	}
}

// regenGolden rewrites testdata/golden.json: the virtual-time figures of
// one full-scale replay per workload and golden seed.
func regenGolden(o options, log io.Writer) error {
	g := map[string]figures{}
	for _, spec := range replaySpecs {
		for seed := int64(1); seed <= goldenSeeds; seed++ {
			f, err := replayFigures(spec, seed)
			if err != nil {
				return err
			}
			g[goldenKey(spec.name, seed)] = f
			fmt.Fprintf(log, "%s: %+v\n", goldenKey(spec.name, seed), f)
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(o.root), append(b, '\n'), 0o644)
}
