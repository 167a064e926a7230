package obs_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode"

	"jaws/internal/bench"
	"jaws/internal/experiments"
	"jaws/internal/obs"
	"jaws/internal/system"
)

// TestChainMatchesReferenceOnArtifacts simulates the run behind every
// committed BENCH_*.json once, as bench.Run does, and makes two checks of
// it. The artifact distilled from the run must equal the file byte for
// byte: the artifacts are virtual-time figures, deterministic for a fixed
// configuration (DESIGN.md §11), so any difference is a decision that
// moved, and a deliberate one is re-recorded with the command the failure
// prints. And Chain must match the reference walk over the run's records,
// on every eighth span: the reference is quadratic, and all spans would
// cost about 30 CPU-seconds. The file's config record names the run, so a
// file not recorded at the default scale under JAWS2 fails. cmd/jawsbench's
// TestArtifactsByteIdentical holds the printed command to the
// configuration and name the file records.
func TestChainMatchesReferenceOnArtifacts(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed artifact (%v)", err)
	}
	for _, path := range paths {
		file := filepath.Base(path)
		t.Run(strings.TrimSuffix(strings.TrimPrefix(file, "BENCH_"), ".json"), func(t *testing.T) {
			t.Parallel()
			committed, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			a, err := bench.Load(path)
			if err != nil {
				t.Fatalf("%v: without its config record the file names no run", err)
			}
			// jawsbench's scale, name and arguments for the run: fig8 with no
			// tail policy is the no-argument run, named jaws2; any other is
			// named after its scenario, with a -tail suffix under a policy.
			s := experiments.DefaultScale()
			name, args := "jaws2", []string(nil)
			if a.Config.Scenario != "fig8" || a.Config.Policy != "" {
				s.Scenario, name = a.Config.Scenario, a.Config.Scenario
				args = []string{"-scenario", s.Scenario}
			}
			if s.TailPolicy = a.Config.Policy; s.TailPolicy != "" {
				name += "-tail"
				args = append(args, "-tail-policy", s.TailPolicy)
			}
			cmd := rerecord(file, args)
			want := bench.ConfigRecord{
				GridSide: s.Space.GridSide, AtomSide: s.Space.AtomSide, Steps: s.Steps, Seed: s.Seed,
				Jobs: s.Jobs, PointsPerQuery: s.PointsPerQuery, QueryScale: s.QueryScale,
				CacheAtoms: s.CacheAtoms, BatchSize: s.BatchSize, RunLength: s.RunLength,
				TbMillis: s.Cost.Tb.Milliseconds(), TmMicros: s.Cost.Tm.Microseconds(),
				Algorithm: system.SchedJAWS2.String(), Scenario: a.Config.Scenario, Policy: s.TailPolicy,
			}
			if a.Config != want {
				t.Fatalf("%s was not recorded at the default scale under JAWS2:\n  recorded %+v\n  default  %+v\nre-record it from the repository root with\n  %s", file, a.Config, want, cmd)
			}

			agg, rec := obs.NewSpanAgg(), obs.NewFlightRecorder(true, nil, nil)
			s.Obs = &obs.Obs{Spans: agg, Flight: rec}
			rep, err := experiments.RunAlgorithm(s, system.SchedJAWS2, s.BatchSize)
			if err != nil {
				t.Fatal(err)
			}
			spans, recs := agg.Spans(), rec.Records()
			got, err := bench.Distill(s, name, rep, spans, recs).Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(committed, got) {
				n, c, g := firstDiff(committed, got)
				t.Errorf("%s differs from its regeneration at line %d:\n  committed:   %s\n  regenerated: %s\nif the change is deliberate, re-record it from the repository root with\n  %s",
					file, n, c, g, cmd)
			}

			var sample []obs.Span
			for i := 0; i < len(spans); i += 8 {
				sample = append(sample, spans[i])
			}
			obs.DiffChains(t, recs, sample)
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
	cmd := "go run ./cmd/jawsbench"
	for _, arg := range append(args, "-bench-out", file) {
		if strings.ContainsFunc(arg, func(r rune) bool {
			return !unicode.IsLetter(r) && !unicode.IsDigit(r) && !strings.ContainsRune("-_.,:=/", r)
		}) {
			arg = "'" + arg + "'"
		}
		cmd += " " + arg
	}
	return cmd
}
