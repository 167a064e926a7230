package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestTrackingAgreesWithReference runs the example end to end: the tracked
// trajectories must stay within the error bound of the analytic reference,
// and the report must say so.
func TestTrackingAgreesWithReference(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	if !strings.HasSuffix(out.String(), "tracking agrees with the analytic reference ✓\n") {
		t.Fatalf("report does not end in the agreement line:\n%s", out.String())
	}
}
