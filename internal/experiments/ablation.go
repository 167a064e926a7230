package experiments

import (
	"fmt"

	"jaws/internal/engine"
	"jaws/internal/sched"
	"jaws/internal/system"
	"jaws/internal/textplot"
)

// AblationRow is one configuration of the ablation study.
type AblationRow struct {
	Name           string
	Throughput     float64
	MeanRespSec    float64
	P95RespSec     float64
	Reads          int64
	CacheHit       float64
	DeadlineMisses int // -1 when QoS is off
	Prefetched     int64
}

// AblationResult collects the design-choice ablations DESIGN.md calls
// out: gating, adaptivity, Morton ordering, plus the §VII extensions
// (prefetch, declared jobs, QoS).
type AblationResult struct {
	Rows  []AblationRow
	Table textplot.Table
}

// Ablations runs the design-choice matrix on the Fig. 10 trace: every row
// is the JAWS2 node description with one field changed.
func Ablations(s Scale) (*AblationResult, error) {
	rows := []struct {
		name  string
		delta func(*system.Config)
	}{
		{"JAWS2 (baseline)", func(*system.Config) {}},
		{"- job-aware gating", func(c *system.Config) { c.Scheduler = system.SchedJAWS1 }},
		{"- adaptive α (fixed 0.5)", func(c *system.Config) { c.AdaptiveOff = true }},
		{"- Morton batch order", func(c *system.Config) { c.NoMortonOrder = true }},
		{"+ trajectory prefetch", func(c *system.Config) { c.Prefetch = true }},
		{"+ declared jobs", func(c *system.Config) { c.DeclareJobs = true }},
		{"+ QoS (stretch 8)", func(c *system.Config) { c.QoSStretch = 8 }},
	}
	r := &AblationResult{}
	r.Table.Header = []string{"configuration", "throughput (q/s)", "mean resp (s)", "p95 resp (s)", "reads", "hit", "extra"}
	for _, ab := range rows {
		cfg := s.Node(system.SchedJAWS2, s.BatchSize)
		ab.delta(&cfg)
		row, err := runAblation(s, ab.name, cfg)
		if err != nil {
			return nil, err
		}
		r.Rows = append(r.Rows, *row)
		extra := ""
		if row.DeadlineMisses >= 0 {
			extra = fmt.Sprintf("misses=%d", row.DeadlineMisses)
		}
		if row.Prefetched > 0 {
			extra = fmt.Sprintf("prefetched=%d", row.Prefetched)
		}
		r.Table.AddRow(ab.name,
			fmt.Sprintf("%.3f", row.Throughput),
			fmt.Sprintf("%.2f", row.MeanRespSec),
			fmt.Sprintf("%.2f", row.P95RespSec),
			fmt.Sprint(row.Reads),
			fmt.Sprintf("%.2f", row.CacheHit),
			extra)
	}
	return r, nil
}

// runAblation runs one row. It builds the engine itself, on the system's
// engine config, to keep the scheduler in hand: the QoS row reads its
// deadline verdicts after the run.
func runAblation(s Scale, name string, cfg system.Config) (*AblationRow, error) {
	sys, err := system.Open(cfg)
	if err != nil {
		return nil, err
	}
	sc := sys.NewScheduler()
	e, err := engine.New(sys.EngineConfig(sc))
	if err != nil {
		return nil, err
	}
	rep, err := e.Run(FreshJobs(s, 1))
	if err != nil {
		return nil, err
	}
	row := &AblationRow{
		Name:           name,
		Throughput:     rep.ThroughputQPS,
		MeanRespSec:    rep.MeanResponse.Seconds(),
		P95RespSec:     rep.P95Response.Seconds(),
		Reads:          rep.DiskStats.Reads,
		CacheHit:       rep.CacheStats.HitRatio(),
		DeadlineMisses: -1,
		Prefetched:     rep.PrefetchedAtoms,
	}
	if cfg.QoSStretch > 0 {
		row.DeadlineMisses = sc.(*sched.JAWS).DeadlineMisses()
	}
	return row, nil
}
