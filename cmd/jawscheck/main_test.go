package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestCleanSuitePasses(t *testing.T) {
	code, out, errb := runCLI(t, "-seeds", "2")
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out, errb)
	}
	if !strings.Contains(out, "40 differential runs") { // 2 seeds × (3 standard + 2 churn + 3 matrix + 1 tail + 1 compose) × ±faults
		t.Errorf("missing summary line:\n%s", out)
	}
	if !strings.Contains(out, "0 diverged") {
		t.Errorf("expected zero divergences:\n%s", out)
	}
}

func TestVerboseAndNoFaults(t *testing.T) {
	code, out, _ := runCLI(t, "-seeds", "1", "-no-faults", "-v")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, algo := range []string{"NoShare", "LifeRaft", "JAWS"} {
		if !strings.Contains(out, algo) {
			t.Errorf("verbose output missing %s line:\n%s", algo, out)
		}
	}
	if !strings.Contains(out, "10 differential runs") {
		t.Errorf("-no-faults should halve the run count:\n%s", out)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-no-such-flag"}, {"-seeds", "0"}} {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
