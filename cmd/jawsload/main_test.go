package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jaws"
	"jaws/internal/obs"
	"jaws/internal/server"
)

var update = flag.Bool("update", false, "rewrite the golden files")

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestLatencyPercentilesMatchReport pins the client-side percentiles to the
// rank jawsreport's request section reads from the same run's trace: over
// 100 latencies of 1…100 ms, p99 is the maximum, not the 99th smallest.
func TestLatencyPercentilesMatchReport(t *testing.T) {
	var asc []time.Duration
	var spans []obs.ReqSpan
	for i := 1; i <= 100; i++ {
		d := time.Duration(i) * time.Millisecond
		asc = append(asc, d)
		spans = append(spans, obs.ReqSpan{ID: obs.RequestID(1, int64(i)), Wall: d})
	}
	sum := obs.SummarizeReqSpans(spans, 0)
	want := fmt.Sprintf("latency         p50 %v p90 %v p95 %v p99 %v max %v", sum.P50, sum.P90, sum.P95, sum.P99, sum.Max)
	if got := latencyLine(asc); got != want || want != "latency         p50 51ms p90 91ms p95 96ms p99 100ms max 100ms" {
		t.Errorf("latency line %q, the report's rank gives %q", got, want)
	}
}

func TestRunUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"-requests", "0"}, 1, "at least one request"},
		{[]string{"-clients", "0"}, 1, "at least one client"},
		{[]string{"-points", "0"}, 1, "must be positive"},
		{[]string{"-mode", "sideways"}, 1, `unknown mode "sideways"`},
		{[]string{"-mode", "open", "-rate", "0"}, 1, "positive -rate"},
	}
	for _, c := range cases {
		code, _, errb := runCLI(t, c.args...)
		if code != c.code {
			t.Errorf("%v: exit %d, want %d (stderr: %s)", c.args, code, c.code, errb)
		}
		if !strings.Contains(errb, c.want) {
			t.Errorf("%v: stderr %q missing %q", c.args, errb, c.want)
		}
	}
}

// TestDryRunPlanIsDeterministic pins the generated workload byte for
// byte: the request plan is a pure function of the flags, so two runs
// with the same seed must print identical plans, matching the golden.
func TestDryRunPlanIsDeterministic(t *testing.T) {
	args := []string{"-dry-run", "-requests", "4", "-points", "2", "-steps", "3", "-seed", "42", "-kernel", "lag6"}
	code, out1, errb := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	code, out2, _ := runCLI(t, args...)
	if code != 0 || out1 != out2 {
		t.Fatalf("two dry runs with the same seed differ:\n%s\n---\n%s", out1, out2)
	}

	golden := filepath.Join("testdata", "plan.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(out1), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out1 != string(want) {
		t.Errorf("plan differs from golden file:\ngot:\n%s\nwant:\n%s", out1, want)
	}

	code, out3, _ := runCLI(t, append(args, "-seed", "43")...)
	if code != 0 {
		t.Fatal("reseeded dry run failed")
	}
	if out3 == out1 {
		t.Error("changing the seed did not change the plan")
	}
}

// TestClosedLoopAgainstRealServer drives a seeded smoke workload through
// a real admission-controlled server and checks the report and exit code.
func TestClosedLoopAgainstRealServer(t *testing.T) {
	sess, err := jaws.OpenSession(jaws.Config{
		Space:      jaws.Space{GridSide: 64, AtomSide: 32},
		Steps:      3,
		Seed:       5,
		CacheAtoms: 16,
		Compute:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Backends: []server.Backend{sess}, Steps: 3, ReqIDSeed: 21})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")

	latPath := filepath.Join(t.TempDir(), "latency.jsonl")
	code, out, errb := runCLI(t,
		"-addr", addr, "-requests", "16", "-clients", "4", "-steps", "3",
		"-points", "2", "-seed", "9", "-min-served", "16", "-latency-out", latPath)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errb, out)
	}
	for _, want := range []string{"requests        16 sent", "status 200      x 16", "latency         p50", "summary         16 served, 0 shed, 0 5xx", "latency records -> "} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	// The latency file holds one record per request in plan order, each
	// carrying the server-assigned request ID for trace joins.
	data, err := os.ReadFile(latPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 16 {
		t.Fatalf("latency-out has %d records, want 16", len(lines))
	}
	seenIDs := make(map[string]bool)
	for i, line := range lines {
		var rec reqRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record %d not JSON: %v (%s)", i, err, line)
		}
		if rec.Seq != i {
			t.Fatalf("record %d out of plan order: seq %d", i, rec.Seq)
		}
		if rec.Status != 200 || rec.LatencyMS <= 0 {
			t.Fatalf("record %d incomplete: %+v", i, rec)
		}
		if len(rec.RequestID) != 17 || seenIDs[rec.RequestID] {
			t.Fatalf("record %d has bad or duplicate request ID %q", i, rec.RequestID)
		}
		seenIDs[rec.RequestID] = true
	}

	// The -min-served gate must fail the run when the bar is too high.
	code, _, errb = runCLI(t,
		"-addr", addr, "-requests", "2", "-clients", "1", "-steps", "3",
		"-points", "1", "-min-served", "100")
	if code != 1 || !strings.Contains(errb, "need at least 100") {
		t.Errorf("min-served gate: exit %d, stderr %q", code, errb)
	}
}

// TestTransportErrorFailsRun points the generator at a closed port.
func TestTransportErrorFailsRun(t *testing.T) {
	ts := httptest.NewServer(nil)
	addr := strings.TrimPrefix(ts.URL, "http://")
	ts.Close() // nothing listens here any more

	code, _, errb := runCLI(t, "-addr", addr, "-requests", "2", "-clients", "1")
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.Contains(errb, "transport level") {
		t.Errorf("stderr %q missing transport failure", errb)
	}
}
