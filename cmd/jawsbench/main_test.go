package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jaws/internal/bench"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	artifact, trace := filepath.Join(dir, "q.json"), filepath.Join(dir, "t.jsonl")
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
		{[]string{"-format", "xml"}, `unknown format "xml"`},
		{[]string{"-quick", "-exp", "fig99"}, `unknown experiment "fig99"`},
		{[]string{"-quick", "-tail-policy", "bogus"}, `invalid value "bogus" for flag -tail-policy`},
		// The artifact run has its own observers and prints no tables:
		// flags it would ignore are refused, by name.
		{[]string{"-quick", "-bench-out", artifact, "-trace-out", trace, "-metrics"}, "-bench-out cannot be combined with -metrics, -trace-out"},
		{[]string{"-quick", "-bench-out", artifact, "-exp", "fig10"}, "-bench-out cannot be combined with -exp"},
		{[]string{"-quick", "-bench-out", artifact, "-format", "text"}, "-bench-out cannot be combined with -format"},
	}
	for _, c := range cases {
		code, _, errb := runCLI(t, c.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", c.args, code)
		}
		if !strings.Contains(errb, c.want) {
			t.Errorf("%v: stderr %q missing %q", c.args, errb, c.want)
		}
	}
	for _, p := range []string{artifact, trace} {
		if _, err := os.Stat(p); err == nil {
			t.Errorf("a usage error wrote %s", p)
		}
	}
}

func TestQuickExperimentTextAndCSV(t *testing.T) {
	// fig8 analyzes the workload without running an engine — the cheapest
	// experiment that still exercises the table pipeline end to end.
	code, out, errb := runCLI(t, "-quick", "-exp", "fig8")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{"== Fig. 8", "completed in"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}

	code, out, errb = runCLI(t, "-quick", "-exp", "fig8", "-format", "csv")
	if code != 0 {
		t.Fatalf("csv: exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "# Fig. 8") {
		t.Errorf("csv output missing section comment:\n%s", out)
	}
	if strings.Contains(out, "completed in") {
		t.Errorf("csv output polluted with timing chatter:\n%s", out)
	}
}

// TestPprofFlag runs the cheapest experiment with the diagnostics
// listener enabled and checks it is advertised on stdout.
func TestPprofFlag(t *testing.T) {
	code, out, errb := runCLI(t, "-quick", "-exp", "fig8", "-pprof", "127.0.0.1:0")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "pprof on http://127.0.0.1:") {
		t.Errorf("output does not advertise the pprof listener:\n%s", out)
	}
}

func TestBadFaultSpec(t *testing.T) {
	code, _, errb := runCLI(t, "-quick", "-fault-spec", "bogus:nope")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errb)
	}
	if !strings.Contains(errb, "jawsbench:") {
		t.Errorf("stderr missing error prefix: %s", errb)
	}
}

// TestBenchOutWritesArtifact covers the benchmark trajectory mode end to
// end: the artifact is written, announced, and loads back.
func TestBenchOutWritesArtifact(t *testing.T) {
	artifact := filepath.Join(t.TempDir(), "BENCH_pr.json")
	code, out, errb := runCLI(t, "-quick", "-bench-out", artifact)
	if code != 0 {
		t.Fatalf("-bench-out: exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "artifact: "+artifact) {
		t.Errorf("no artifact line in output:\n%s", out)
	}
	if _, err := bench.Load(artifact); err != nil {
		t.Fatalf("written artifact does not load: %v", err)
	}
}

// The ablation and α-dynamics experiments build their engines through the
// same node description as every other experiment, so -trace-out, -metrics
// and -tail-policy reach them too (they used to wire their own engines and
// drop all three).
func TestAblationAndAlphaHonourObserversAndPolicy(t *testing.T) {
	tables := map[string]string{}
	for _, exp := range []string{"ablation", "alpha"} {
		path := filepath.Join(t.TempDir(), exp+".jsonl")
		code, out, errb := runCLI(t, "-quick", "-exp", exp, "-format", "csv", "-trace-out", path, "-metrics")
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", exp, code, errb)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(data, []byte("\n")); n == 0 {
			t.Errorf("-exp %s -trace-out wrote no events", exp)
		}
		if !strings.Contains(out, "jaws_decisions_total") {
			t.Errorf("-exp %s -metrics printed no registry:\n%s", exp, out)
		}
		tables[exp], _, _ = strings.Cut(out, "\n\n") // the table, without the metrics dump
	}
	for exp, plain := range tables {
		code, out, errb := runCLI(t, "-quick", "-exp", exp, "-format", "csv", "-tail-policy", "adaptive-batch:min=2,max=4")
		if code != 0 {
			t.Fatalf("%s -tail-policy: exit %d, stderr: %s", exp, code, errb)
		}
		if strings.TrimSpace(out) == strings.TrimSpace(plain) {
			t.Errorf("-exp %s ignores -tail-policy: same table with and without it:\n%s", exp, out)
		}
	}
}
