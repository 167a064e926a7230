package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jaws/internal/bench"
)

// TestArtifactsByteIdentical holds every committed BENCH_*.json to the
// jawsbench command that re-records it: the arguments derived from the
// file's config record, as internal/obs's
// TestChainMatchesReferenceOnArtifacts derives the command it prints.
// That test simulates each file's configuration once and compares the
// bytes; this one proves the command reaches bench.Run with that
// configuration and the file's name, so the command restores the file.
// BENCH_fig8-tail.json, whose arguments use both -scenario and
// -tail-policy, is regenerated in full and compared byte for byte. Every
// other command runs with -jobs 1 appended, which changes the recorded job
// count and nothing else, so it costs no default-scale simulation.
func TestArtifactsByteIdentical(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed artifact (%v)", err)
	}
	for _, path := range paths {
		file := filepath.Base(path)
		t.Run(file, func(t *testing.T) {
			t.Parallel()
			committed, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			a, err := bench.Load(path)
			if err != nil {
				t.Fatalf("%v: without its config record the file names no command", err)
			}
			// fig8 with no tail policy is the no-argument run.
			var args []string
			if a.Config.Scenario != "fig8" || a.Config.Policy != "" {
				args = []string{"-scenario", a.Config.Scenario}
			}
			if a.Config.Policy != "" {
				args = append(args, "-tail-policy", a.Config.Policy)
			}
			full := file == "BENCH_fig8-tail.json"
			if !full {
				args = append(args, "-jobs", "1")
			}
			out := filepath.Join(t.TempDir(), file)
			var stdout, stderr bytes.Buffer
			if code := run(append(args, "-bench-out", out), &stdout, &stderr); code != 0 {
				t.Fatalf("jawsbench %s: exit %d: %s", strings.Join(args, " "), code, stderr.String())
			}
			if full {
				if got, _ := os.ReadFile(out); !bytes.Equal(committed, got) {
					n, c, g := firstDiff(committed, got)
					t.Errorf("%s differs from its regeneration by jawsbench %s at line %d:\n  committed:   %s\n  regenerated: %s",
						file, strings.Join(args, " "), n, c, g)
				}
				return
			}
			got, err := bench.Load(out)
			if err != nil {
				t.Fatal(err)
			}
			got.Config.Jobs = a.Config.Jobs
			if got.Name != a.Name || got.Config != a.Config {
				t.Errorf("jawsbench %s writes\n  %s %+v\nbut %s records\n  %s %+v",
					strings.Join(args, " "), got.Name, got.Config, file, a.Name, a.Config)
			}
		})
	}
}

// firstDiff returns the first line (1-based) at which a and b differ and
// both versions of it; a line past the end of a file reads as "<end of file>".
func firstDiff(a, b []byte) (n int, la, lb string) {
	as, bs := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	line := func(ls []string, i int) string {
		if i < len(ls) {
			return ls[i]
		}
		return "<end of file>"
	}
	for n = 1; n <= max(len(as), len(bs)); n++ {
		if la, lb = line(as, n-1), line(bs, n-1); la != lb {
			break
		}
	}
	return n, la, lb
}
