package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"jaws/internal/experiments"
)

// TestArtifactByteDeterminism runs the same benchmark twice and demands
// byte-identical artifacts: the determinism contract the trajectory
// harness depends on.
func TestArtifactByteDeterminism(t *testing.T) {
	s := experiments.TestScale()
	a1, err := Run(s, "det")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Run(s, "det")
	if err != nil {
		t.Fatal(err)
	}
	b1, err := a1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := a2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("artifact bytes differ between identical runs:\n%s\n--- vs ---\n%s", b1, b2)
	}
	if a1.Completed == 0 || a1.ThroughputQPS <= 0 {
		t.Fatalf("degenerate artifact: %+v", a1)
	}
	if a1.Phases == (PhaseMeans{}) {
		t.Fatal("artifact carries no phase attribution")
	}
	if len(a1.WaitCauses) != 4 {
		t.Fatalf("artifact carries %d wait-cause rows, want 4", len(a1.WaitCauses))
	}
	var totalWait float64
	for _, ct := range a1.WaitCauses {
		totalWait += ct.TotalMS
	}
	if totalWait <= 0 {
		t.Fatal("wait-cause breakdown attributes no wait at all")
	}
}

// TestArtifactRoundTrip writes and reloads an artifact.
func TestArtifactRoundTrip(t *testing.T) {
	s := experiments.TestScale()
	a, err := Run(s, "roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_roundtrip.json")
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ab, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, ab) {
		t.Fatalf("round trip changed artifact:\n got %s\nwant %s", gb, ab)
	}
}

// TestLoadRejectsOtherVersions ensures a file of another schema version
// fails loudly.
func TestLoadRejectsOtherVersions(t *testing.T) {
	s := experiments.TestScale()
	a, err := Run(s, "ver")
	if err != nil {
		t.Fatal(err)
	}
	a.Version = ArtifactVersion + 1
	path := filepath.Join(t.TempDir(), "BENCH_ver.json")
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load accepted a foreign schema version")
	}
}

// FuzzLoadArtifact hammers the artifact reader with arbitrary bytes, seeded
// with the committed artifacts: it must never panic, must accept only the
// current schema version, and what it accepts must encode to a canonical
// form that parses back to the same bytes.
func FuzzLoadArtifact(f *testing.F) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no committed BENCH_*.json to seed the corpus")
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := parse(data)
		if err != nil {
			return
		}
		if a.Version != ArtifactVersion {
			t.Fatalf("accepted schema version %d, want %d", a.Version, ArtifactVersion)
		}
		enc, err := a.Encode()
		if err != nil {
			t.Fatalf("accepted artifact does not encode: %v", err)
		}
		back, err := parse(enc)
		if err != nil {
			t.Fatalf("canonical encoding does not parse: %v\n%s", err, enc)
		}
		again, err := back.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("canonical encoding is not a fixed point:\n%s\n--- vs ---\n%s", enc, again)
		}
	})
}
