package main

import (
	"fmt"
	"os"
)

// Example runs the quickstart: JAWS against the arrival-order baseline on one
// seeded workload. Every figure is virtual time, so the output is exact.
func Example() {
	if err := run(os.Stdout); err != nil {
		fmt.Println(err)
	}
	// Output:
	// running 337 queries from 40 jobs...
	// throughput      3.26 queries/second (virtual time)
	// mean response   0.306 s
	// cache hit       77.1%
	// gating edges    62 admitted
	// final age bias  α = 0.09
	//
	// NoShare baseline: 3.22 q/s — JAWS speedup 1.01x
}
