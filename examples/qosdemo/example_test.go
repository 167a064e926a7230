package main

import (
	"fmt"
	"os"
)

// Example runs the QoS demo: the short queries' p95 and the throughput,
// without and with the QoS wrapper. Every figure is virtual time, so the
// output is exact.
func Example() {
	if err := run(os.Stdout); err != nil {
		fmt.Println(err)
	}
	// Output:
	// mixed workload: one dense cutout + 40 short point queries
	// JAWS (no guarantees)         p95(short) =  10.84s   throughput = 3.75 q/s
	// JAWS + QoS (stretch 6)       p95(short) =   9.05s   throughput = 4.33 q/s
	//
	// QoS cut the short queries' p95 by 16% while keeping 116% of throughput.
}
