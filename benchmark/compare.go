package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	return &r, nil
}

// series is one (workload, metric) pair's values over a file's runs.
type series []float64

func (s series) median() float64 { return median(s) }

// spread is the distance between the quartiles as a share of the median,
// the run-to-run noise of one commit; zero with fewer than two runs.
func (s series) spread() float64 {
	if len(s) < 2 {
		return 0
	}
	q1, q3 := quartiles(s)
	return ratio(q3-q1, s.median())
}

// tally is one workload's runs in one file.
type tally struct {
	metrics           map[string]series
	attempted, failed int64
}

func tallyRuns(r *result) (map[string]*tally, []string) {
	out := map[string]*tally{}
	var order []string
	for _, run := range r.Runs {
		t := out[run.Workload]
		if t == nil {
			t = &tally{metrics: map[string]series{}}
			out[run.Workload] = t
			order = append(order, run.Workload)
		}
		t.attempted += run.Attempted
		t.failed += run.Failed
		for name, v := range run.Metrics {
			t.metrics[name] = append(t.metrics[name], v)
		}
	}
	return out, order
}

// verdict compares one end-to-end metric. worsening is how far head's
// median is on the wrong side of base's, as a share of base's.
//
//	unresolved: the spread between either side's own runs exceeds the
//	            bound, so the bound cannot be checked
//	worse:      worsening beyond the bound
//	better:     improvement beyond the spread between base's own runs
//	same:       anything else
func verdict(d metricDef, base, head series) string {
	b, h := base.median(), head.median()
	worsening := ratio(h-b, b)
	if d.Better == "higher" {
		worsening = -worsening
	}
	noise := base.spread()
	if hs := head.spread(); hs > noise {
		noise = hs
	}
	switch {
	case noise > d.Bound:
		return "unresolved"
	case worsening > d.Bound:
		return "worse"
	case worsening < 0 && -worsening > base.spread():
		return "better"
	}
	return "same"
}

// compareFiles prints one row per (workload, metric) of two result files
// and returns the exit code: 1 when any end-to-end metric is worse or any
// workload fails more often in head than in base.
func compareFiles(basePath, headPath string, stdout, stderr io.Writer) int {
	base, err := loadResult(basePath)
	var head *result
	if err == nil {
		head, err = loadResult(headPath)
	}
	if err == nil && base.Traced != head.Traced {
		err = fmt.Errorf("%s and %s differ in -trace", basePath, headPath)
	}
	if err == nil && base.Seconds != head.Seconds {
		err = fmt.Errorf("%s ran %g s and %s %g s: run length must be the same on both sides", basePath, base.Seconds, headPath, head.Seconds)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "base: %s  commit %s  %s  %d x %s\n", basePath, base.Env.Commit, base.Env.GoVersion, base.Env.NProc, base.Env.CPUModel)
	fmt.Fprintf(stdout, "head: %s  commit %s  %s  %d x %s\n", headPath, head.Env.Commit, head.Env.GoVersion, head.Env.NProc, head.Env.CPUModel)
	defs := append(append([]metricDef(nil), endToEnd...), timed...)
	if base.Traced {
		defs = perLayer
	}
	bt, order := tallyRuns(base)
	ht, _ := tallyRuns(head)
	fmt.Fprintf(stdout, "%-12s %-28s %14s %14s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "base", "head", "head/base", "bound", "spread-b", "spread-h", "verdict")
	bad := 0
	for _, w := range order {
		b, h := bt[w], ht[w]
		if h == nil {
			fmt.Fprintf(stdout, "%-12s missing from head\n", w)
			bad++
			continue
		}
		for _, d := range defs {
			bs, hs := b.metrics[d.Name], h.metrics[d.Name]
			if len(bs) == 0 || len(hs) == 0 {
				continue
			}
			v := "-" // a per-layer metric has no bound to hold it to
			if d.Bound > 0 {
				v = verdict(d, bs, hs)
			}
			if v == "worse" {
				bad++
			}
			fmt.Fprintf(stdout, "%-12s %-28s %14.4f %14.4f %9.4f %6.0f%% %7.2f%% %7.2f%%  %s\n",
				w, d.Name, bs.median(), hs.median(), ratio(hs.median(), bs.median()), d.Bound*100,
				bs.spread()*100, hs.spread()*100, v)
		}
		bf, hf := ratio(float64(b.failed), float64(b.attempted)), ratio(float64(h.failed), float64(h.attempted))
		v := "same"
		if hf > bf {
			v = "worse"
			bad++
		}
		fmt.Fprintf(stdout, "%-12s %-28s %14.6f %14.6f %9s %7s %8s %8s  %s\n", w, "fail_frac", bf, hf, "", "", "", "", v)
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d row(s) worse\n", bad)
		return 1
	}
	return 0
}
