package main

import (
	"fmt"
	"os"
)

// Example runs the cluster service at its default size: the batch workload
// across four nodes, then the commands for the serving half. Every figure
// is virtual time, so the output is exact.
func Example() {
	if code := run(nil, os.Stdout, os.Stderr); code != 0 {
		fmt.Println("exit", code)
	}
	// Output:
	// cluster run: 203 logical queries, makespan 129.9 virtual s, 1.56 q/s aggregate
	//   node 0:  126 queries, 0.97 q/s, cache hit 82.0%
	//   node 1:   32 queries, 0.25 q/s, cache hit 85.9%
	//   node 2:   56 queries, 0.56 q/s, cache hit 84.5%
	//   node 3:   24 queries, 0.19 q/s, cache hit 85.7%
	//
	// the web-service front end over such nodes is cmd/jawsd:
	//   go run ./cmd/jawsd -addr 127.0.0.1:8080 -nodes 4 -grid 128 -steps 8
	//   go run ./cmd/jawsload -addr 127.0.0.1:8080 -steps 8
}
