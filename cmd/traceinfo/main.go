// Command traceinfo summarizes a trace file written by tracegen: the job
// mix, the Fig. 8 duration histogram, the Fig. 9 step-access
// distribution, and the job-identification accuracy achievable on the
// trace's raw log records.
//
// Usage:
//
//	traceinfo trace.json.gz
package main

import (
	"fmt"
	"os"

	"jaws/internal/experiments"
	"jaws/internal/job"
	"jaws/internal/metrics"
	"jaws/internal/workload"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: traceinfo <trace-file>")
		os.Exit(2)
	}
	f, err := os.Open(os.Args[1])
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	w, err := workload.Load(f)
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Println(workload.Describe(w))

	// Job mix.
	var ordered, batched, lone int
	maxSteps := 0
	for _, j := range w.Jobs {
		switch {
		case len(j.Queries) == 1:
			lone++
		case j.Type == job.Ordered:
			ordered++
		default:
			batched++
		}
		for _, q := range j.Queries {
			if q.Step+1 > maxSteps {
				maxSteps = q.Step + 1
			}
		}
	}
	fmt.Printf("job mix: %d ordered, %d batched, %d lone queries\n\n", ordered, batched, lone)

	// Fig. 8-style duration histogram.
	if len(w.Durations) > 0 {
		fmt.Println("job durations (Fig. 8):")
		fmt.Println(experiments.Fig8Of(w).Table.String())
	}

	// Fig. 9-style step distribution.
	if len(w.StepAccess) > 0 {
		total := 0
		for _, c := range w.StepAccess {
			total += c
		}
		tbl := metrics.Table{Header: []string{"step", "queries", "fraction"}}
		for s, c := range w.StepAccess {
			tbl.AddRow(fmt.Sprint(s), fmt.Sprint(c), fmt.Sprintf("%.3f", float64(c)/float64(total)))
		}
		fmt.Println("step access (Fig. 9):")
		fmt.Println(tbl.String())
	}

	// Identification accuracy on the raw log.
	if len(w.Records) > 0 {
		assignment := job.Identify(w.Records, job.DefaultIdentifyParams())
		acc := job.Accuracy(w.Records, assignment)
		fmt.Printf("job identification (§IV.A): pairwise accuracy %.3f over %d records\n",
			acc, len(w.Records))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "traceinfo: "+format+"\n", args...)
	os.Exit(1)
}
