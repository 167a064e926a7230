package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExampleSmoke runs the example at a reduced size: the cluster report,
// then the pointers to the serving binaries.
func TestExampleSmoke(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-jobs", "4", "-nodes", "2", "-grid", "64", "-steps", "4"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
	for _, want := range []string{
		"cluster run:",
		"node 0:",
		"node 1:",
		"go run ./cmd/jawsd ",
		"go run ./cmd/jawsload ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestExampleFlagError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
}
