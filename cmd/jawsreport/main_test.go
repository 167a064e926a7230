package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestGolden locks the report's rendering against golden files; run with
// -update after intentional output changes.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		fixture, golden string
		wantIntegrity   bool
	}{
		{"trace.jsonl", "trace.golden", false},
		// The truncated fixture has no footer: the report must render in
		// full AND the audit must fail with the errIntegrity exit.
		{"truncated.jsonl", "truncated.golden", true},
		{"service.jsonl", "service.golden", false},
	} {
		t.Run(tc.fixture, func(t *testing.T) {
			out, err := report(t, tc.fixture)
			if tc.wantIntegrity {
				if !errors.Is(err, errIntegrity) {
					t.Fatalf("err = %v, want errIntegrity", err)
				}
			} else if err != nil {
				t.Fatal(err)
			}
			goldenPath := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(goldenPath, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if out != string(want) {
				t.Errorf("output differs from %s (rerun with -update after intentional changes):\n%s", tc.golden, out)
			}
		})
	}
}

// TestReqLookup exercises -req against the service fixture: a stitched
// request renders both clocks, an unstitched one falls back to the
// wall-clock side only, and an unknown ID is an error.
func TestReqLookup(t *testing.T) {
	open := func(t *testing.T) *os.File {
		in, err := os.Open(filepath.Join("..", "testdata", "service.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return in
	}

	t.Run("stitched", func(t *testing.T) {
		in := open(t)
		defer in.Close()
		var out bytes.Buffer
		if err := run(in, "service.jsonl", &out, 10, "r1111111111111111", ""); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			"request r1111111111111111",
			"status 200",
			"wall    2.045s",
			"virtual 2s = gated 100ms",
			"engine  query 1 job 1: 1 decisions, 1/1 cache hit/miss",
		} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("stitched record missing %q:\n%s", want, out.String())
			}
		}
	})

	t.Run("unstitched", func(t *testing.T) {
		in := open(t)
		defer in.Close()
		var out bytes.Buffer
		if err := run(in, "service.jsonl", &out, 10, "r3333333333333333", ""); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			"request r3333333333333333",
			"status 429",
			"virtual (no engine span carries this request ID)",
		} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("unstitched record missing %q:\n%s", want, out.String())
			}
		}
	})

	t.Run("unknown", func(t *testing.T) {
		in := open(t)
		defer in.Close()
		var out bytes.Buffer
		err := run(in, "service.jsonl", &out, 10, "rdeadbeefdeadbeef", "")
		if err == nil || !strings.Contains(err.Error(), "no request span") {
			t.Fatalf("unknown ID: err = %v, want a no-request-span error", err)
		}
	})
}

// TestNoSpans checks the error path for a trace without lifecycle spans.
func TestNoSpans(t *testing.T) {
	in := bytes.NewBufferString(`{"t":0,"kind":"cache_hit","step":1,"code":5}` + "\n")
	var out bytes.Buffer
	if err := run(in, "nospans", &out, 10, "", ""); err == nil {
		t.Fatal("expected an error for a span-free trace")
	}
}
