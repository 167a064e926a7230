package main

import (
	"fmt"
	"os"
)

// Example runs the stats sweep: per-step statistics over a probe sphere of
// the deterministic field, and the sweep's virtual time and hit ratio.
func Example() {
	if err := run(os.Stdout); err != nil {
		fmt.Println(err)
	}
	// Output:
	// step   <KE>        u_rms       p_rms
	// ----   ---------   ---------   ---------
	//    0     0.00685     0.06757     0.06076
	//    1     0.00685     0.06758     0.06081
	//    2     0.00685     0.06759     0.06087
	//    3     0.00686     0.06761     0.06092
	//    4     0.00686     0.06762     0.06097
	//    5     0.00686     0.06763     0.06103
	//    6     0.00686     0.06765     0.06108
	//    7     0.00687     0.06766     0.06112
	//
	// 8 queries, 3.03 virtual seconds, cache hit 71.4%
	// KE(first)=0.00685 KE(last)=0.00687 — stationary within a factor of 1.0
}
