// Particle tracking: the workflow that motivates job-aware scheduling in
// the paper (§IV). Several experiments each scatter a cloud of particles
// and track them through time: at every step they query the database for
// the velocity at each particle's position, integrate the motion outside
// the database (midpoint rule), and submit the next step's query with the
// new positions — the data dependency that makes these jobs *ordered*.
//
// The example runs the stepping loop for real (kernels evaluated, results
// used), then verifies the tracked trajectories against a high-resolution
// reference integration of the analytic field.
//
//	go run ./examples/particletracking
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"os"

	"jaws"
)

const (
	steps     = 8    // time steps to track through
	clouds    = 6    // concurrent experiments (ordered jobs)
	particles = 40   // particles per cloud
	dt        = 2e-3 // physical time per database step (2 s / 1024)
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run tracks the clouds and checks them against the analytic reference.
func run(w io.Writer) error {
	sys, err := jaws.Open(jaws.Config{
		Space:       jaws.Space{GridSide: 128, AtomSide: 32},
		Steps:       steps,
		Scheduler:   jaws.SchedJAWS2,
		Policy:      jaws.PolicyURC,
		CacheAtoms:  48,
		Compute:     true, // evaluate the interpolation kernels for real
		KeepResults: true,
	})
	if err != nil {
		return err
	}

	// Scatter the clouds near a shared region of interest — particles with
	// inertia cluster in turbulent structures, so concurrent experiments
	// often track the same neighbourhood (§V.B).
	rng := rand.New(rand.NewSource(11))
	center := jaws.Position{X: 2.0, Y: 3.0, Z: 1.5}
	pos := make([][]jaws.Position, clouds)
	for c := range pos {
		pos[c] = make([]jaws.Position, particles)
		for p := range pos[c] {
			pos[c][p] = jaws.Position{
				X: center.X + rng.NormFloat64()*0.2 + float64(c)*0.05,
				Y: center.Y + rng.NormFloat64()*0.2,
				Z: center.Z + rng.NormFloat64()*0.2,
			}
		}
	}
	// Reference trajectories: integrate the analytic field directly at
	// much smaller time step.
	ref := make([][]jaws.Position, clouds)
	for c := range ref {
		ref[c] = append([]jaws.Position(nil), pos[c]...)
	}
	field := sys.Store().Field()

	var totalVirtual float64
	var queryID jaws.QueryID = 1
	for step := 0; step < steps-1; step++ {
		// One query per cloud at this step: the next query of each
		// ordered experiment. (The stepping loop plays the role of the
		// scientist's driver script.)
		var jobs []*jaws.Job
		for c := 0; c < clouds; c++ {
			q := &jaws.Query{
				ID:     queryID,
				JobID:  int64(c + 1),
				Step:   step,
				Points: append([]jaws.Position(nil), pos[c]...),
				Kernel: jaws.KernelLag6,
			}
			queryID++
			jobs = append(jobs, &jaws.Job{
				ID: int64(c + 1), User: c + 1, Type: jaws.Batched,
				Queries: []*jaws.Query{q},
			})
		}
		rep, err := sys.Run(jobs)
		if err != nil {
			return err
		}
		totalVirtual += rep.Elapsed.Seconds()

		// Advance each cloud with the returned velocities (midpoint rule:
		// use the step-s velocity for a half step, then re-evaluate — here
		// simple forward Euler with the interpolated velocity, which is
		// what the public service's clients typically do).
		for _, res := range rep.Results {
			c := int(res.Query.JobID - 1)
			for i, pv := range res.Positions {
				pos[c][i] = jaws.Position{
					X: pos[c][i].X + pv.Val[0]*dt,
					Y: pos[c][i].Y + pv.Val[1]*dt,
					Z: pos[c][i].Z + pv.Val[2]*dt,
				}
			}
		}
		// Advance the reference with the analytic field (4 substeps).
		for c := range ref {
			for i := range ref[c] {
				p := ref[c][i]
				for sub := 0; sub < 4; sub++ {
					v := field.Eval(step, p)
					p = jaws.Position{X: p.X + v[0]*dt/4, Y: p.Y + v[1]*dt/4, Z: p.Z + v[2]*dt/4}
				}
				ref[c][i] = p
			}
		}
	}

	// Compare tracked positions with the reference.
	var maxErr, meanErr float64
	n := 0
	for c := range pos {
		for i := range pos[c] {
			dx := pos[c][i].X - ref[c][i].X
			dy := pos[c][i].Y - ref[c][i].Y
			dz := pos[c][i].Z - ref[c][i].Z
			e := math.Sqrt(dx*dx + dy*dy + dz*dz)
			meanErr += e
			if e > maxErr {
				maxErr = e
			}
			n++
		}
	}
	meanErr /= float64(n)

	fmt.Fprintf(w, "tracked %d particles in %d clouds through %d steps\n", clouds*particles, clouds, steps-1)
	fmt.Fprintf(w, "virtual time    %.2f s\n", totalVirtual)
	fmt.Fprintf(w, "cache hit       %.1f%%\n", sys.CacheStats().HitRatio()*100)
	fmt.Fprintf(w, "trajectory err  mean %.2e, max %.2e (vs analytic reference)\n", meanErr, maxErr)
	if meanErr > 0.05 {
		return fmt.Errorf("tracking diverged from reference: mean error %.3f", meanErr)
	}
	fmt.Fprintln(w, "tracking agrees with the analytic reference ✓")
	return nil
}
