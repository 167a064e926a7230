package main

import "testing"

// The register only reads files to find a stale entry, so that check runs
// with the tests; running the mutants is make check-mutants.
func TestRegisterNotStale(t *testing.T) {
	entries, bad := load("../..")
	for _, b := range bad {
		t.Error(b)
	}
	if len(entries) == 0 {
		t.Error("the register is empty")
	}
}
