// Stats sweep: a batched job in the paper's taxonomy (§IV) — evaluating
// statistical quantities of the turbulence over parts of the volume, one
// independent query per time step. The queries have no data dependencies,
// so they can execute in any order and JAWS treats them like one-off
// queries; the scheduler is still free to reorder them for I/O sharing.
//
// The example computes the mean kinetic energy and the RMS velocity over
// a probe sphere for every stored time step and prints the series.
//
//	go run ./examples/statssweep
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"os"

	"jaws"
)

const (
	steps  = 8
	probes = 200 // sample positions per step
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the per-step statistics and checks that they stay stationary.
func run(out io.Writer) error {
	sys, err := jaws.Open(jaws.Config{
		Space:       jaws.Space{GridSide: 128, AtomSide: 32},
		Steps:       steps,
		Scheduler:   jaws.SchedJAWS1, // batched work: no gating needed
		Policy:      jaws.PolicySLRU,
		CacheAtoms:  48,
		Compute:     true,
		KeepResults: true,
	})
	if err != nil {
		return err
	}

	// One batched job: a query per time step sampling the same probe
	// sphere (Monte-Carlo volume integration).
	rng := rand.New(rand.NewSource(3))
	center := jaws.Position{X: 3.5, Y: 2.0, Z: 4.0}
	const radius = 0.6
	points := make([]jaws.Position, probes)
	for i := range points {
		// Uniform in the sphere via rejection.
		for {
			x, y, z := rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1
			if x*x+y*y+z*z <= 1 {
				points[i] = jaws.Position{
					X: center.X + x*radius,
					Y: center.Y + y*radius,
					Z: center.Z + z*radius,
				}
				break
			}
		}
	}

	j := &jaws.Job{ID: 1, User: 1, Type: jaws.Batched}
	for s := 0; s < steps; s++ {
		j.Queries = append(j.Queries, &jaws.Query{
			ID:     jaws.QueryID(s + 1),
			JobID:  1,
			Seq:    s,
			Step:   s,
			Points: append([]jaws.Position(nil), points...),
			Kernel: jaws.KernelLag4,
		})
	}

	rep, err := sys.Run([]*jaws.Job{j})
	if err != nil {
		return err
	}

	// The synthetic field is statistically stationary, so the kinetic
	// energy should not drift wildly across steps: first and last keep it.
	var first, last float64
	fmt.Fprintf(out, "step   <KE>        u_rms       p_rms\n")
	fmt.Fprintf(out, "----   ---------   ---------   ---------\n")
	for _, res := range rep.Results {
		var ke, u2, p2 float64
		for _, pv := range res.Positions {
			v2 := pv.Val[0]*pv.Val[0] + pv.Val[1]*pv.Val[1] + pv.Val[2]*pv.Val[2]
			ke += 0.5 * v2
			u2 += v2 / 3
			p2 += pv.Val[3] * pv.Val[3]
		}
		n := float64(len(res.Positions))
		switch res.Query.Step {
		case 0:
			first = ke / n
		case steps - 1:
			last = ke / n
		}
		fmt.Fprintf(out, "%4d   %9.5f   %9.5f   %9.5f\n",
			res.Query.Step, ke/n, math.Sqrt(u2/n), math.Sqrt(p2/n))
	}
	fmt.Fprintf(out, "\n%d queries, %.2f virtual seconds, cache hit %.1f%%\n",
		rep.Completed, rep.Elapsed.Seconds(), rep.CacheStats.HitRatio()*100)
	if first <= 0 || last <= 0 {
		return errors.New("kinetic energy vanished — field sampling broken")
	}
	fmt.Fprintf(out, "KE(first)=%.5f KE(last)=%.5f — stationary within a factor of %.1f\n",
		first, last, math.Max(first/last, last/first))
	return nil
}
