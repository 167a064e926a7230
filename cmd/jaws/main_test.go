package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"jaws"
)

// tiny are flags keeping a run under a second.
var tiny = []string{"-jobs", "4", "-steps", "3", "-cache", "32"}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunReportsAllSections(t *testing.T) {
	code, out, errb := runCLI(t, append(tiny, "-sched", "jaws2", "-v")...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{
		"workload:", "scheduler       JAWS2", "completed", "response time",
		"cache ", "disk ", "gating", "final α", "run  ended-at", // -v history
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSchedulerSelection(t *testing.T) {
	for name, wantGating := range map[string]bool{
		"noshare": false, "liferaft1": false, "liferaft2": false,
		"jaws1": false, "jaws2": true,
	} {
		code, out, errb := runCLI(t, append(tiny, "-sched", name)...)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", name, code, errb)
		}
		if got := strings.Contains(out, "gating"); got != wantGating {
			t.Errorf("%s: gating section present=%v, want %v", name, got, wantGating)
		}
	}
}

func TestRunUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		// A bad enum value is rejected by the flag itself, like any bad flag.
		{append(tiny, "-sched", "bogus"), 2, `unknown scheduler "bogus"`},
		{append(tiny, "-policy", "bogus"), 2, `unknown cache policy "bogus"`},
		{append(tiny, "-fault-spec", "bogus:nope"), 1, "fault"},
		{append(tiny, "-trace", "/nonexistent/trace.gz"), 1, "no such file"},
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

func TestRunFaultSpecSurvivable(t *testing.T) {
	// Transient faults with retries: the run must complete with exit 0.
	code, out, errb := runCLI(t, append(tiny, "-fault-spec", "disk-transient:p=0.1", "-fault-seed", "7")...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "completed") {
		t.Errorf("faulted run produced no report:\n%s", out)
	}
}

func TestRunFaultSpecCrashFails(t *testing.T) {
	// A scheduled node crash aborts the run: non-zero exit, crash on stderr.
	code, _, errb := runCLI(t, append(tiny, "-fault-spec", "crash@0:at=1s")...)
	if code != 1 {
		t.Fatalf("crashed run exited %d, want 1 (stderr: %s)", code, errb)
	}
	if !strings.Contains(errb, "crash") {
		t.Errorf("stderr does not mention the crash: %s", errb)
	}
}

func TestRunTraceOutAndMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	code, out, errb := runCLI(t, append(tiny, "-trace-out", path, "-metrics")...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "trace ") {
		t.Errorf("no trace summary in output:\n%s", out)
	}
	if !strings.Contains(out, "jaws_") {
		t.Errorf("no metrics in output:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	if len(bytes.TrimSpace(data)) == 0 {
		t.Error("trace file is empty")
	}
}

// TestTraceSaveRoundTrip saves the workload a run generated and replays it:
// the replay describes the same workload and prints the same report, the
// wall-clock line aside, compressed or not.
func TestTraceSaveRoundTrip(t *testing.T) {
	noWall := func(out string) string {
		i := strings.Index(out, "wall clock")
		if i < 0 {
			t.Fatalf("no wall-clock line:\n%s", out)
		}
		return out[:i]
	}
	for _, name := range []string{"w.json", "w.json.gz"} {
		path := filepath.Join(t.TempDir(), name)
		code, saved, errb := runCLI(t, append(tiny, "-seed", "3", "-trace-save", path)...)
		if code != 0 {
			t.Fatalf("%s: save: exit %d, stderr: %s", name, code, errb)
		}
		code, replayed, errb := runCLI(t, "-steps", "3", "-cache", "32", "-seed", "3", "-trace", path)
		if code != 0 {
			t.Fatalf("%s: replay: exit %d, stderr: %s", name, code, errb)
		}
		if !strings.HasPrefix(saved, "workload: ") || noWall(saved) != noWall(replayed) {
			t.Errorf("%s: replay differs from the run that saved it:\n--- saved\n%s--- replayed\n%s", name, saved, replayed)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if gz := bytes.HasPrefix(data, []byte{0x1f, 0x8b}); gz != strings.HasSuffix(name, ".gz") {
			t.Errorf("%s: gzip magic present = %v", name, gz)
		}
	}
	if code, _, errb := runCLI(t, append(tiny, "-trace-save", "/nonexistent/dir/w.json")...); code != 1 || !strings.Contains(errb, "no such file") {
		t.Errorf("unwritable -trace-save: exit %d, stderr %q", code, errb)
	}
}

// TestEnumFlagNames runs the command under every spelling the two enum
// flags accept — the names their help lists, the names the report prints,
// and mixed case — and holds the help text to the same tables. The cache
// policies are Table I's three; any other name is a usage error that lists
// them.
func TestEnumFlagNames(t *testing.T) {
	if got, want := jaws.CachePolicyNames(), []string{"lruk", "slru", "urc"}; !slices.Equal(got, want) {
		t.Errorf("cache policy names = %v, want %v", got, want)
	}
	for _, name := range []string{"2q", "lru", "fifo"} {
		code, _, errb := runCLI(t, append(tiny, "-policy", name)...)
		if code != 2 || !strings.Contains(errb, `unknown cache policy "`+name+`" (have: lruk, slru, urc)`) {
			t.Errorf("-policy %s: exit %d, stderr %q; want 2 and the three names", name, code, errb)
		}
	}
	policies := append(jaws.CachePolicyNames(), "lru-k", "LRU-K", "Slru", "URC")
	for _, name := range policies {
		want, err := jaws.ParseCachePolicy(name)
		if err != nil {
			t.Fatalf("ParseCachePolicy(%q): %v", name, err)
		}
		code, out, errb := runCLI(t, append(tiny, "-policy", name)...)
		if code != 0 {
			t.Fatalf("-policy %s: exit %d, stderr: %s", name, code, errb)
		}
		if line := "cache policy    " + want.String() + " "; !strings.Contains(out, line) {
			t.Errorf("-policy %s: report missing %q:\n%s", name, line, out)
		}
	}
	schedulers := append(jaws.SchedulerNames(), "JAWS2", "LifeRaft1", "NoShare")
	for _, name := range schedulers {
		want, err := jaws.ParseScheduler(name)
		if err != nil {
			t.Fatalf("ParseScheduler(%q): %v", name, err)
		}
		code, out, errb := runCLI(t, append(tiny, "-sched", name)...)
		if code != 0 {
			t.Fatalf("-sched %s: exit %d, stderr: %s", name, code, errb)
		}
		if line := "scheduler       " + want.String() + " "; !strings.Contains(out, line) {
			t.Errorf("-sched %s: report missing %q:\n%s", name, line, out)
		}
	}
	_, _, help := runCLI(t, "-h")
	for _, want := range []string{
		"scheduler: " + strings.Join(jaws.SchedulerNames(), ", "),
		"cache policy: " + strings.Join(jaws.CachePolicyNames(), ", "),
	} {
		if !strings.Contains(help, want) {
			t.Errorf("help missing %q:\n%s", want, help)
		}
	}
}
