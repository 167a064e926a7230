package main

import (
	"path/filepath"
	"strings"
	"testing"

	"jaws/internal/bench"
	"jaws/internal/workload"
)

// TestListScenarios pins the registry listing: sorted names, one line
// each, description attached. The golden names are the scenario matrix's
// public contract (CI and the README table are built on them).
func TestListScenarios(t *testing.T) {
	code, out, errb := runCLI(t, "-list-scenarios")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	want := []string{"deriv-chain", "diurnal", "fig8", "flows", "poisson-box"}
	if len(lines) != len(want) {
		t.Fatalf("listing has %d lines, want %d:\n%s", len(lines), len(want), out)
	}
	for i, name := range want {
		fields := strings.Fields(lines[i])
		if len(fields) < 2 || fields[0] != name {
			t.Errorf("line %d = %q, want scenario %q with a description", i, lines[i], name)
		}
	}
	// The listing is the registry: both must agree exactly.
	if got := workload.ScenarioNames(); len(got) != len(want) {
		t.Fatalf("registry has %d scenarios, listing pinned to %d", len(got), len(want))
	}
}

func TestUnknownScenarioIsUsageError(t *testing.T) {
	code, _, errb := runCLI(t, "-scenario", "lunar", "-exp", "fig8", "-quick")
	if code != 2 {
		t.Fatalf("exit %d, want 2 (stderr: %s)", code, errb)
	}
	if !strings.Contains(errb, `unknown scenario "lunar"`) {
		t.Errorf("stderr does not name the bad scenario: %s", errb)
	}
	// The error must advertise the valid names, or the user is stuck.
	if !strings.Contains(errb, "poisson-box") {
		t.Errorf("stderr does not list valid scenarios: %s", errb)
	}
}

// TestScenarioBenchArtifact runs a scenario benchmark at test scale and
// checks the artifact records the scenario and is named after it.
func TestScenarioBenchArtifact(t *testing.T) {
	dir := t.TempDir()
	artifact := filepath.Join(dir, "BENCH_poisson-box.json")
	code, _, errb := runCLI(t, "-quick", "-scenario", "poisson-box", "-bench-out", artifact)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	a, err := bench.Load(artifact)
	if err != nil {
		t.Fatal(err)
	}
	if a.Config.Scenario != "poisson-box" {
		t.Errorf("artifact scenario = %q, want poisson-box", a.Config.Scenario)
	}
	if a.Name != "poisson-box" {
		t.Errorf("artifact name = %q, want the scenario name", a.Name)
	}
}
