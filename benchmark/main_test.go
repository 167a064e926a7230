package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"jaws"
	"jaws/internal/engine"
	"jaws/internal/job"
	"jaws/internal/server"
)

// testDaemon is the jawsd binary TestMain builds once for every test.
var testDaemon string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "jawsbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testDaemon = filepath.Join(dir, "jawsd")
	build := exec.Command("go", "build", "-o", testDaemon, "./cmd/jawsd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build jawsd: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// smokeOptions runs a workload at 1/50 of its calibrated size.
func smokeOptions(t *testing.T) options {
	t.Helper()
	return options{
		root: "..", jawsd: testDaemon, seed: 1, seconds: 0.3, scale: 0.02,
		traceOut: filepath.Join(t.TempDir(), "spans.jsonl"),
	}
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmokeEndToEnd runs every workload end to end at 1/50 scale: correct
// outputs, no failures, and exactly the catalogue's metrics, none of them 0.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			out, err := runWorkload(w, false, smokeOptions(t))
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d notes=%q", out.Correct, out.Attempted, out.Failed, out.Notes)
			}
			if err := out.Metrics.checkFinite(); err != nil {
				t.Fatal(err)
			}
			all := append(append([]metricDef(nil), endToEnd...), timed...)
			if len(out.Metrics) != len(all) {
				t.Errorf("run reported %d metrics, the catalogue has %d: %v", len(out.Metrics), len(all), out.Metrics)
			}
			for _, d := range all {
				if v, ok := out.Metrics[d.Name]; !ok || v <= 0 {
					t.Errorf("%s = %v (present %v): an end-to-end metric is never 0", d.Name, v, ok)
				}
			}
		})
	}
}

// TestSmokeTraced runs every workload's traced run at 1/50 scale: only
// catalogued names, the span file written, and the layer-separation facts
// that hold at any size.
func TestSmokeTraced(t *testing.T) {
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.Name] = true
	}
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			o := smokeOptions(t)
			out, err := runWorkload(w, true, o)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 {
				t.Fatalf("correct=%v failed=%d notes=%q", out.Correct, out.Failed, out.Notes)
			}
			if err := out.Metrics.checkFinite(); err != nil {
				t.Fatal(err)
			}
			for name := range out.Metrics {
				if !known[name] {
					t.Errorf("metric %q is not in the per-layer catalogue", name)
				}
			}
			m := out.Metrics
			if m["trace.spans"] < 1 || m["trace.qps_ratio"] <= 0 {
				t.Errorf("trace.spans=%v trace.qps_ratio=%v", m["trace.spans"], m["trace.qps_ratio"])
			}
			b, err := os.ReadFile(o.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.Count(b, []byte("\n"))
			if float64(lines) != m["trace.spans"] {
				t.Errorf("span file holds %d lines, trace.spans is %v", lines, m["trace.spans"])
			}
			var first span
			if err := json.Unmarshal(b[:bytes.IndexByte(b, '\n')], &first); err != nil || first.Name == "" || first.End < first.Start {
				t.Errorf("first span %+v: %v", first, err)
			}
			switch w {
			case "serve-hot", "serve-bulk", "replay-warm":
				if m["store.reads"] != 0 {
					t.Errorf("store.reads = %v on a resident-set workload", m["store.reads"])
				}
			case "serve-cold", "replay-cold":
				if m["store.reads"] == 0 || m["store.busy_frac"] <= 0 {
					t.Errorf("store.reads=%v store.busy_frac=%v on a cold workload", m["store.reads"], m["store.busy_frac"])
				}
			}
			if strings.HasPrefix(w, "serve-") {
				if m["server.roundtrip_us"] <= 0 || m["engine.session_us"] <= 0 || m["server.decode_us"] <= 0 {
					t.Errorf("server/engine timings missing: %v", m)
				}
			} else if m["jobgraph.admit_us"] <= 0 || m["engine.run_ms"] <= 0 {
				t.Errorf("jobgraph/engine timings missing: %v", m)
			}
			if w == "serve-hot" && m["obs.on_qps_ratio"] <= 0 {
				t.Errorf("obs.on_qps_ratio = %v", m["obs.on_qps_ratio"])
			}
		})
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the driver's file and the
// program's tables equal.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(f.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", f.Command, f.Paths)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", f.RunSeconds, defaultSeconds)
	}
	var ws []string
	for _, w := range f.Workloads {
		ws = append(ws, w.Name)
		if !nameRe.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if !reflect.DeepEqual(ws, workloadNames()) {
		t.Errorf("workloads %v, the program runs %v", ws, workloadNames())
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		seen := map[string]bool{}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, g, w)
			}
			if !nameRe.MatchString(g.Name) || seen[g.Name] {
				t.Errorf("%s: name %q is malformed or repeated", kind, g.Name)
			}
			seen[g.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s %s: bound %v, the program's is %v", kind, g.Name, g.Bound, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s carries a bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
	if len(f.PerLayer) > 128 || len(f.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's limits", len(f.PerLayer), len(f.EndToEnd))
	}
}

// TestContractLine checks the object the driver reads from the last line:
// exactly four keys and every catalogued metric, zero-filled where it does
// not apply; and that the table prints every metric by name.
func TestContractLine(t *testing.T) {
	out, err := runWorkload("replay-warm", false, smokeOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	res := result{Runs: []*outcome{out}}
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		b, err := json.Marshal(res.contractLine(defs))
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(b, &keys); err != nil || len(keys) != 4 {
			t.Fatalf("contract line %s: %v", b, err)
		}
		var c contract
		if err := json.Unmarshal(b, &c); err != nil {
			t.Fatal(err)
		}
		if !c.Correct || c.Attempted != out.Attempted || c.Failed != 0 || len(c.Metrics) != len(defs) {
			t.Errorf("contract line %s", b)
		}
		for _, d := range defs {
			if v, ok := c.Metrics[d.Name]; !ok || v.Unit != d.Unit || v.Value != out.Metrics[d.Name] {
				t.Errorf("%s = %+v, the run measured %v", d.Name, v, out.Metrics[d.Name])
			}
		}
		var table bytes.Buffer
		printOutcome(&table, out, traced)
		for _, d := range defs {
			if !strings.Contains(table.String(), "  "+d.Name+" ") || !strings.Contains(table.String(), " "+d.Unit+"\n") {
				t.Errorf("table does not print %s with its unit", d.Name)
			}
		}
	}
}

// TestDriverFlags: the driver's spelling of the flags parses; an unknown
// workload is refused without a result line.
func TestDriverFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-root", "..", "--workload", "no-such", "--seed", "3", "--seconds", "1", "--trace", "0"}, &stdout, &stderr)
	if code != 1 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "unknown workload") {
		t.Errorf("exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}

// TestPlantedWrongValueFails plants a wrong value in every sampled response:
// the recomputation check must count failures and the run must read
// incorrect.
func TestPlantedWrongValueFails(t *testing.T) {
	o := smokeOptions(t)
	o.plant = func(body []byte) []byte {
		var resp server.QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Error(err)
			return body
		}
		resp.Values[0].Velocity[1] *= 1 + 1e-6
		out, _ := json.Marshal(resp)
		return out
	}
	out, err := runWorkload("serve-hot", false, o)
	if err != nil {
		t.Fatal(err)
	}
	if out.Correct || out.Failed == 0 {
		t.Fatalf("planted wrong values went unnoticed: correct=%v failed=%d of %d", out.Correct, out.Failed, out.Attempted)
	}
	res := result{Runs: []*outcome{out}}
	if line := res.contractLine(endToEnd); line.Correct || line.Failed == 0 {
		t.Errorf("contract line hides the failure: %+v", line)
	}
}

// TestSeedDeterminism: the same seed gives the same inputs, another seed
// other inputs.
func TestSeedDeterminism(t *testing.T) {
	for _, s := range serveSpecs {
		a, err := buildPlan(s, 7, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildPlan(s, 7, 0.02)
		c, _ := buildPlan(s, 8, 0.02)
		if !reflect.DeepEqual(a.bodies, b.bodies) {
			t.Errorf("%s: seed 7 gave two different plans", s.name)
		}
		if reflect.DeepEqual(a.bodies, c.bodies) {
			t.Errorf("%s: seeds 7 and 8 gave the same plan", s.name)
		}
	}
	scale := shrink(replaySpecs[0].scale(), 0.02)
	points := func(seed int64) []jaws.Position {
		var out []jaws.Position
		for _, j := range freshJobs(scale, seed) {
			for _, q := range j.Queries {
				out = append(out, q.Points...)
			}
		}
		return out
	}
	if !reflect.DeepEqual(points(5), points(5)) || reflect.DeepEqual(points(5), points(6)) {
		t.Error("replay traces do not follow the seed")
	}
}

// reportFigures are the fields of an engine report that must not depend on
// how the engine was assembled.
func reportFigures(r *engine.Report) string {
	return fmt.Sprintf("%s completed=%d elapsed=%v qps=%v mean=%v p50=%v p95=%v cache=%d/%d/%d disk=%d/%d/%d/%v alpha=%v gating=%d/%d runs=%d",
		r.Scheduler, r.Completed, r.Elapsed, r.ThroughputQPS, r.MeanResponse, r.P50Response, r.P95Response,
		r.CacheStats.Hits, r.CacheStats.Misses, r.CacheStats.Evictions,
		r.DiskStats.Reads, r.DiskStats.SeqReads, r.DiskStats.Bytes, r.DiskStats.BusyTime,
		r.FinalAlpha, r.GatingAdmitted, r.GatingRejected, len(r.Runs))
}

// TestWiringDriftReplay: the in-process assembly, bare and decorated, must
// report exactly what the facade reports for the same trace, over a cold and
// then a warm replay of both replay configurations.
func TestWiringDriftReplay(t *testing.T) {
	for _, spec := range replaySpecs {
		scale := shrink(spec.scale(), 0.04)
		cfg := facadeConfig(scale)
		sys, err := jaws.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bare, err := assemble(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		decorated, err := assemble(cfg, &probes{rec: newRecorder(), countAllocs: true, spanParent: "engine.run"})
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			want, err := sys.Run(freshJobs(scale, 2))
			if err != nil {
				t.Fatal(err)
			}
			for name, a := range map[string]*assembly{"bare": bare, "decorated": decorated} {
				got, err := a.run(freshJobs(scale, 2), nil)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := reportFigures(got), reportFigures(want); g != w {
					t.Errorf("%s pass %d: %s assembly reports\n%s\nthe facade\n%s", spec.name, pass, name, g, w)
				}
			}
		}
		if decorated.p.decisions == 0 || decorated.p.enqueues == 0 || decorated.p.hits == 0 {
			t.Errorf("%s: the decorators saw nothing: %+v", spec.name, decorated.p)
		}
	}
}

// sessionLike is what jaws.OpenSession and assembly.session both return.
type sessionLike interface {
	Submit(jobs ...*job.Job) error
	Results() <-chan *engine.QueryResult
	Close() *engine.Report
}

// serveOneByOne submits the plan's requests to s one at a time, as the
// server would build them, and returns each result rendered plus the final
// report.
func serveOneByOne(t *testing.T, s sessionLike, pl *plan) ([]string, string) {
	t.Helper()
	var out []string
	for i, body := range pl.bodies {
		var req server.QueryRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		pts := make([]jaws.Position, len(req.Points))
		for k, p := range req.Points {
			pts[k] = jaws.Position{X: p.X, Y: p.Y, Z: p.Z}
		}
		id := int64(i + 1)
		q := &jaws.Query{ID: jaws.QueryID(id), JobID: id, User: 1, Step: req.Step, DerivSteps: req.DerivSteps, Points: pts, Kernel: wireKernels[req.Kernel]}
		if err := s.Submit(&jaws.Job{ID: id, User: 1, Type: jaws.Batched, Queries: []*jaws.Query{q}}); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-s.Results():
			out = append(out, fmt.Sprintf("%d@%v %v", r.Query.ID, r.Completed, r.Positions))
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d: no result", i)
		}
	}
	return out, reportFigures(s.Close())
}

// TestWiringDriftSession: the assembly's session, bare and decorated, must
// return the facade session's results, value for value, for the same plan.
func TestWiringDriftSession(t *testing.T) {
	pl, err := buildPlan(serveSpecs[2], 3, 0.03) // the bulk plan: all three request classes
	if err != nil {
		t.Fatal(err)
	}
	facade, err := jaws.OpenSession(daemonConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, wantReport := serveOneByOne(t, facade, pl)
	for _, p := range []*probes{nil, {rec: newRecorder()}} {
		a, err := assemble(daemonConfig(), p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := a.session()
		if err != nil {
			t.Fatal(err)
		}
		got, gotReport := serveOneByOne(t, s, pl)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("decorated=%v: the assembly's session results differ from the facade's", p != nil)
		}
		if gotReport != wantReport {
			t.Errorf("decorated=%v: the assembly's session reports\n%s\nthe facade's\n%s", p != nil, gotReport, wantReport)
		}
	}
}

// TestQuartilesMatchPython pins the quartile method to the one
// statistics.quantiles(values, n=4) uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles of {1,3} = %v, %v; Python gives 0.5, 3.5", q1, q3)
	}
}

// TestCompare drives -compare over made-up result files: every verdict, and
// the exit code on a worse metric and on a higher failure share.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, qps []float64, failed int64) string {
		r := result{Seconds: 16}
		for _, v := range qps {
			r.Runs = append(r.Runs, &outcome{Workload: "serve-hot", Correct: failed == 0, Attempted: 100, Failed: failed,
				Metrics: metricSet{"qps": v, "allocs_per_query": 100}})
		}
		path := filepath.Join(dir, name)
		if err := r.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{1000, 1010, 990, 1005, 995}
	base := write("base.json", steady, 0)
	cases := []struct {
		name    string
		head    string
		verdict string
		code    int
	}{
		{"same", write("same.json", []float64{980, 1000, 990, 985, 995}, 0), "same", 0},
		{"better", write("better.json", []float64{1100, 1110, 1090, 1105, 1095}, 0), "better", 0},
		{"worse", write("worse.json", []float64{700, 710, 690, 705, 695}, 0), "worse", 1},
		{"unresolved", write("noisy.json", []float64{500, 1500, 900, 1300, 700}, 0), "unresolved", 0},
		{"failing", write("failing.json", steady, 3), "same", 1},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := compareFiles(base, c.head, &stdout, &stderr)
		if code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, code, c.code, stdout.String(), stderr.String())
		}
		var row string
		for _, line := range strings.Split(stdout.String(), "\n") {
			if strings.Contains(line, " qps ") {
				row = line
			}
		}
		if !strings.HasSuffix(row, c.verdict) {
			t.Errorf("%s: qps row %q, want verdict %s", c.name, row, c.verdict)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := compareFiles(base, filepath.Join(dir, "absent.json"), &stdout, &stderr); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}
