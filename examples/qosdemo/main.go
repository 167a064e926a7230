// QoS demo: the paper's §VII discussion proposes completion-time
// guarantees proportional to query size — short queries delayed less than
// long queries — while keeping enough elasticity to share I/O. This
// example runs the same mixed workload (one huge cutout query amid many
// small point queries) with and without the QoS wrapper and compares the
// p95 response time of the small queries.
//
//	go run ./examples/qosdemo
package main

import (
	"cmp"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"sort"
	"time"

	"jaws"
)

func buildWorkload(space jaws.Space) ([]*jaws.Job, error) {
	rng := rand.New(rand.NewSource(5))
	var jobs []*jaws.Job
	var qid jaws.QueryID = 1

	// One scan-heavy cutout: a whole-octant box sampled densely.
	atomLen := 2 * 3.14159265 / 4
	box, err := jaws.BoxQuery(qid, space, 0,
		jaws.Position{X: 0, Y: 0, Z: 0},
		jaws.Position{X: 2 * atomLen, Y: 2 * atomLen, Z: 2 * atomLen},
		2, jaws.KernelLag4)
	if err != nil {
		return nil, err
	}
	box.JobID = 1
	box.Arrival = 0
	qid++
	jobs = append(jobs, &jaws.Job{ID: 1, User: 1, Type: jaws.Batched, Queries: []*jaws.Query{box}})

	// Forty short interactive queries trickling in behind it.
	for i := 0; i < 40; i++ {
		pts := make([]jaws.Position, 5)
		for p := range pts {
			pts[p] = jaws.Position{
				X: 3 + rng.Float64(),
				Y: 3 + rng.Float64(),
				Z: 3 + rng.Float64(),
			}
		}
		q := &jaws.Query{
			ID:      qid,
			JobID:   int64(i + 2),
			Step:    1 + i%3,
			Points:  pts,
			Kernel:  jaws.KernelTrilinear,
			Arrival: time.Duration(i) * 20 * time.Millisecond,
		}
		qid++
		jobs = append(jobs, &jaws.Job{
			ID: int64(i + 2), User: i + 2, Type: jaws.Batched,
			Queries: []*jaws.Query{q},
		})
	}
	return jobs, nil
}

// measure runs the workload under a QoS stretch (0: none) and returns the
// short queries' p95 response and the throughput.
func measure(stretch float64) (small95 float64, tp float64, err error) {
	space := jaws.Space{GridSide: 128, AtomSide: 32}
	sys, err := jaws.Open(jaws.Config{
		Space:      space,
		Steps:      4,
		Scheduler:  jaws.SchedJAWS1,
		CacheAtoms: 16,
		// A pure throughput maximizer (α fixed at 0) starves the short
		// queries behind the cutout's deep atom queues — the last-mile
		// scenario of §III.C that QoS is meant to bound.
		InitialAlpha: 0,
		AlphaSet:     true,
		AdaptiveOff:  true,
		QoSStretch:   stretch,
		KeepResults:  true,
	})
	if err != nil {
		return 0, 0, err
	}
	jobs, err := buildWorkload(space)
	if err != nil {
		return 0, 0, err
	}
	rep, err := sys.Run(jobs)
	if err != nil {
		return 0, 0, err
	}
	// p95 response of the small queries only (job IDs ≥ 2).
	var rts []float64
	for _, r := range rep.Results {
		if r.Query.JobID >= 2 {
			rts = append(rts, (r.Completed - r.Query.Arrival).Seconds())
		}
	}
	sort.Float64s(rts)
	return rts[len(rts)*95/100], rep.ThroughputQPS, nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run compares the workload without and with the QoS wrapper.
func run(w io.Writer) error {
	p95Plain, tpPlain, err := measure(0)
	p95QoS, tpQoS, errQoS := measure(6)
	if err = cmp.Or(err, errQoS); err != nil {
		return err
	}
	fmt.Fprintln(w, "mixed workload: one dense cutout + 40 short point queries")
	fmt.Fprintf(w, "%-28s p95(short) = %6.2fs   throughput = %.2f q/s\n", "JAWS (no guarantees)", p95Plain, tpPlain)
	fmt.Fprintf(w, "%-28s p95(short) = %6.2fs   throughput = %.2f q/s\n", "JAWS + QoS (stretch 6)", p95QoS, tpQoS)
	if p95QoS < p95Plain {
		fmt.Fprintf(w, "\nQoS cut the short queries' p95 by %.0f%% while keeping %.0f%% of throughput.\n",
			(1-p95QoS/p95Plain)*100, tpQoS/tpPlain*100)
	} else {
		fmt.Fprintln(w, "\nshort queries were already unstarved on this run")
	}
	return nil
}
