package experiments

import (
	"fmt"
	"time"

	"jaws/internal/system"
	"jaws/internal/textplot"
	"jaws/internal/workload"
)

// AlphaPoint is one adaptation run of the α-dynamics experiment.
type AlphaPoint struct {
	Run         int
	EndedAt     time.Duration
	Alpha       float64
	Throughput  float64
	MeanRespSec float64
}

// AlphaResult traces the adaptive age bias through a workload whose
// saturation changes midway.
type AlphaResult struct {
	Points []AlphaPoint
	// MinAlphaBurst is the lowest α observed during the saturated phases;
	// MaxAlphaLull the highest during the idle phase.
	MinAlphaBurst float64
	MaxAlphaLull  float64
	Table         textplot.Table
	Chart         string
}

// AlphaDynamics exercises §V.A end to end: a saturated burst, an idle
// lull, then another burst. The controller should drive α toward 0
// (contention, throughput) while saturated and let it rise during the
// lull (spending slack capacity on response time).
func AlphaDynamics(s Scale) (*AlphaResult, error) {
	mk := func(seed int64, jobs int, gapMult float64) *workload.Workload {
		cfg := s.workloadConfig(1, seed)
		cfg.Jobs = jobs
		cfg.MeanJobGap = time.Duration(float64(s.MeanJobGap) * gapMult)
		return workload.Generate(cfg)
	}
	trace := workload.Concat([]*workload.Workload{
		mk(s.Seed, s.Jobs/2, 1),    // saturated burst
		mk(s.Seed+1, s.Jobs/6, 64), // idle lull: long gaps
		mk(s.Seed+2, s.Jobs/2, 1),  // saturated burst again
	}, 10*time.Second)

	rep, err := run(s.Node(system.SchedJAWS2, s.BatchSize), trace.Jobs)
	if err != nil {
		return nil, err
	}

	r := &AlphaResult{MinAlphaBurst: 1}
	r.Table.Header = []string{"run", "ended at (s)", "α", "throughput (q/s)", "mean resp (s)"}
	alphaSeries := textplot.Series{Label: "α per run"}
	for i, run := range rep.Runs {
		p := AlphaPoint{
			Run:         i,
			EndedAt:     run.EndedAt,
			Alpha:       run.Alpha,
			Throughput:  run.Throughput,
			MeanRespSec: run.MeanRespSec,
		}
		r.Points = append(r.Points, p)
		r.Table.AddRow(fmt.Sprint(i), fmt.Sprintf("%.1f", run.EndedAt.Seconds()),
			fmt.Sprintf("%.3f", run.Alpha), fmt.Sprintf("%.2f", run.Throughput),
			fmt.Sprintf("%.2f", run.MeanRespSec))
		alphaSeries.Append(float64(i), run.Alpha)
		if run.Alpha < r.MinAlphaBurst {
			r.MinAlphaBurst = run.Alpha
		}
	}
	// The lull is the stretch of runs with the slowest arrival pressure;
	// approximate it as the middle third of runs and take the max α there.
	n := len(r.Points)
	for i := n / 3; i < 2*n/3; i++ {
		if r.Points[i].Alpha > r.MaxAlphaLull {
			r.MaxAlphaLull = r.Points[i].Alpha
		}
	}
	r.Chart = textplot.LineChart([]textplot.Series{alphaSeries}, 8)
	return r, nil
}
