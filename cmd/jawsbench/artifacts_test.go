package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode"
)

// artifacts is every committed BENCH_*.json and the jawsbench arguments
// that produce it, -bench-out aside. The names recorded inside the files
// are jawsbench's defaults: the scenario, jaws2 for the baseline trace,
// and a -tail suffix under a policy.
var artifacts = []struct {
	file string
	args []string
}{
	{"BENCH_main.json", nil},
	{"BENCH_poisson-box.json", []string{"-scenario", "poisson-box"}},
	{"BENCH_deriv-chain.json", []string{"-scenario", "deriv-chain"}},
	{"BENCH_diurnal.json", []string{"-scenario", "diurnal"}},
	{"BENCH_fig8-tail.json", []string{"-scenario", "fig8", "-tail-policy", "gate-aware:boost=1.2,discount=0.8"}},
	{"BENCH_poisson-box-tail.json", []string{"-scenario", "poisson-box", "-tail-policy", "gate-aware"}},
	{"BENCH_deriv-chain-tail.json", []string{"-scenario", "deriv-chain", "-tail-policy", "cross-step:span=2;adaptive-batch"}},
}

// TestArtifactsByteIdentical regenerates every committed artifact through
// the code `jawsbench -bench-out` runs and compares it with the file byte
// for byte. The artifacts are virtual-time figures, deterministic for a
// fixed configuration (DESIGN.md §11), so any difference is a decision
// that moved. A deliberate change re-records the file with the command
// the failure prints; a committed BENCH_*.json without a row fails.
func TestArtifactsByteIdentical(t *testing.T) {
	root := filepath.Join("..", "..")
	committed, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]bool, len(artifacts))
	for _, a := range artifacts {
		rows[a.file] = true
	}
	for _, path := range committed {
		if name := filepath.Base(path); !rows[name] {
			t.Errorf("%s has no row in artifacts_test.go: add the jawsbench arguments that produce it, or delete the file", name)
		}
	}
	for _, a := range artifacts {
		t.Run(a.file, func(t *testing.T) {
			t.Parallel()
			cmd := rerecord(a.file, a.args)
			want, err := os.ReadFile(filepath.Join(root, a.file))
			if err != nil {
				t.Fatalf("%v; record it from the repository root with\n  %s", err, cmd)
			}
			out := filepath.Join(t.TempDir(), a.file)
			var stdout, stderr bytes.Buffer
			if code := run(append(append([]string(nil), a.args...), "-bench-out", out), &stdout, &stderr); code != 0 {
				t.Fatalf("%s: exit %d: %s", cmd, code, stderr.String())
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				n, w, g := firstDiff(want, got)
				t.Errorf("%s differs from its regeneration at line %d:\n  committed:   %s\n  regenerated: %s\nif the change is deliberate, re-record it from the repository root with\n  %s",
					a.file, n, w, g, cmd)
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

// rerecord is the shell command that writes file from the given arguments.
func rerecord(file string, args []string) string {
	var b strings.Builder
	b.WriteString("go run ./cmd/jawsbench")
	for _, arg := range append(append([]string(nil), args...), "-bench-out", file) {
		if strings.ContainsFunc(arg, func(r rune) bool {
			return !unicode.IsLetter(r) && !unicode.IsDigit(r) && !strings.ContainsRune("-_.,:=/", r)
		}) {
			arg = "'" + arg + "'"
		}
		b.WriteString(" " + arg)
	}
	return b.String()
}
