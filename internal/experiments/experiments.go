// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI) against the simulated Turbulence node. Each experiment
// returns structured results plus a rendered text table so the same code
// backs both the jawsbench CLI and the repository's benchmark suite.
//
// Absolute numbers differ from the paper (the substrate is a simulator,
// not the 2010 testbed); the shapes under test — who wins, by roughly what
// factor, where the crossovers fall — are recorded in EXPERIMENTS.md's
// paper-versus-measured part.
package experiments

import (
	"fmt"
	"sync"
	"time"

	"jaws/internal/engine"
	"jaws/internal/fault"
	"jaws/internal/geom"
	"jaws/internal/job"
	"jaws/internal/obs"
	"jaws/internal/sched"
	"jaws/internal/system"
	"jaws/internal/textplot"
	"jaws/internal/workload"
)

// Scale fixes the simulation size for a whole experiment suite.
type Scale struct {
	Space          geom.Space
	Steps          int
	SampleSide     int
	Seed           int64
	Jobs           int
	PointsPerQuery int
	QueryScale     int
	MeanJobGap     time.Duration
	ThinkTime      time.Duration
	CacheAtoms     int
	BatchSize      int
	RunLength      int
	Cost           sched.CostModel
	// Scenario names a workload.Scenario overlay (arrival process +
	// query-class mix) applied to every workload the suite generates.
	// Empty means "fig8", the calibrated historical trace. Callers must
	// validate the name (the CLIs do at flag-parse time); an unknown name
	// panics in workloadConfig.
	Scenario string
	// TailPolicy, when non-empty, is a sched.PolicySpec string decorating
	// the JAWS schedulers (system.SchedJAWS1/SchedJAWS2) with tail
	// policies. The other algorithms ignore it. Callers must validate the spec (the
	// CLIs do at flag-parse time); an invalid spec errors in system.Open.
	TailPolicy string
	// Obs, when non-nil, instruments every engine the suite builds
	// (jawsbench threads its -trace-out/-metrics flags through here).
	Obs *obs.Obs
	// FaultSpec/FaultSeed inject deterministic faults into every engine
	// the suite builds (jawsbench's -fault-spec/-fault-seed flags); the
	// empty spec leaves the engines fault-free.
	FaultSpec fault.Spec
	FaultSeed int64
}

// DefaultScale is the evaluation scale used by jawsbench and the benches:
// a 31-step store of 512 atoms per step, ≈500 jobs (≈5.5k queries), a
// 128-atom cache, and JAWS batch size k = 10 (the optimum at this scale
// sits at the low end of the paper's 10–15 band).
func DefaultScale() Scale {
	return Scale{
		Space:          geom.Space{GridSide: 256, AtomSide: 32},
		Steps:          31,
		SampleSide:     4,
		Seed:           42,
		Jobs:           500,
		PointsPerQuery: 60,
		QueryScale:     5,
		MeanJobGap:     100 * time.Millisecond,
		ThinkTime:      20 * time.Millisecond,
		CacheAtoms:     128,
		BatchSize:      10,
		RunLength:      32,
		Cost:           sched.DefaultCost(),
	}
}

// TestScale is a miniature for unit tests of the harness itself: fewer,
// shorter jobs on a smaller grid, with gaps tightened so the trace is
// still contended enough for data-driven batching to pay off.
func TestScale() Scale {
	s := DefaultScale()
	s.Space = geom.Space{GridSide: 128, AtomSide: 32}
	s.Steps = 8
	s.Jobs = 60
	s.PointsPerQuery = 30
	s.CacheAtoms = 24
	s.QueryScale = 15
	s.MeanJobGap = 100 * time.Millisecond
	return s
}

func (s Scale) workloadConfig(speedUp float64, seed int64) workload.Config {
	cfg := workload.Config{
		Seed:           seed,
		Space:          s.Space,
		Steps:          s.Steps,
		Jobs:           s.Jobs,
		PointsPerQuery: s.PointsPerQuery,
		OrderedFrac:    0.7,
		LoneQueryFrac:  0.05,
		SpeedUp:        speedUp,
		MeanJobGap:     s.MeanJobGap,
		ThinkTime:      s.ThinkTime,
		QueryScale:     s.QueryScale,
		Hotspots:       6,
	}
	if s.Scenario != "" && s.Scenario != "fig8" {
		cfg = workload.MustScenario(s.Scenario).Apply(cfg)
	}
	return cfg
}

// AllAlgorithms lists the Fig. 10 lineup.
func AllAlgorithms() []system.Scheduler {
	return []system.Scheduler{system.SchedNoShare, system.SchedLifeRaft1,
		system.SchedLifeRaft2, system.SchedJAWS1, system.SchedJAWS2}
}

// Node describes the node every experiment runs on, under one algorithm
// with batch size k (α₀ = 0.5, adaptive, LRU-K: the description's defaults).
// An experiment states its setting as a delta on it. Exported for the
// benchmark's in-repo twins (BenchmarkReplayCold, TestRunAllocBudget).
func (s Scale) Node(alg system.Scheduler, k int) system.Config {
	cfg := system.Config{
		Space:      s.Space,
		Steps:      s.Steps,
		SampleSide: s.SampleSide,
		Seed:       s.Seed,
		Scheduler:  alg,
		BatchSize:  k,
		CacheAtoms: s.CacheAtoms,
		Cost:       s.Cost,
		RunLength:  s.RunLength,
		Obs:        s.Obs,
		Fault:      s.FaultSpec,
		FaultSeed:  s.FaultSeed,
	}
	if alg == system.SchedJAWS1 || alg == system.SchedJAWS2 {
		cfg.TailPolicy = s.TailPolicy
	}
	return cfg
}

// run executes jobs on a fresh system built from cfg.
func run(cfg system.Config, jobs []*job.Job) (*engine.Report, error) {
	sys, err := system.Open(cfg)
	if err != nil {
		return nil, err
	}
	return sys.Run(jobs)
}

// FreshJobs re-generates the workload so every run starts from pristine
// query state (arrival times of ordered successors are mutated in place by
// the engine).
func FreshJobs(s Scale, speedUp float64) []*job.Job {
	return workload.Generate(s.workloadConfig(speedUp, s.Seed)).Jobs
}

// RunAlgorithm executes a fresh speed-up-1 workload under one algorithm
// with batch size k, using the default LRU-K cache. Exported for the
// repository's benchmark suite.
func RunAlgorithm(s Scale, alg system.Scheduler, k int) (*engine.Report, error) {
	return RunAlgorithmOn(s, alg, FreshJobs(s, 1), k)
}

// RunAlgorithmOn is RunAlgorithm with a caller-provided job list (e.g. a
// different saturation speed-up).
func RunAlgorithmOn(s Scale, alg system.Scheduler, jobs []*job.Job, k int) (*engine.Report, error) {
	return run(s.Node(alg, k), jobs)
}

// RunPolicy executes the speed-up-1 workload under JAWS1 with the given
// cache replacement policy.
func RunPolicy(s Scale, pol system.CachePolicy) (*engine.Report, error) {
	cfg := s.Node(system.SchedJAWS1, s.BatchSize)
	cfg.Policy = pol
	return run(cfg, FreshJobs(s, 1))
}

// --- Fig. 8: distribution of jobs by execution time ---------------------

// Fig8Result is the duration histogram of the generated trace; Hist
// buckets job durations in nanoseconds.
type Fig8Result struct {
	Hist  *obs.Histogram
	Table textplot.Table
}

// Fig8 reproduces the job-duration distribution.
func Fig8(s Scale) *Fig8Result {
	w := workload.Generate(s.workloadConfig(1, s.Seed))
	h := obs.NewHistogram(float64(time.Minute), float64(30*time.Minute),
		float64(time.Hour), float64(2*time.Hour), float64(6*time.Hour))
	for _, d := range w.Durations {
		h.Observe(float64(d))
	}
	r := &Fig8Result{Hist: h}
	r.Table.Header = []string{"duration", "jobs", "fraction"}
	labels := []string{"<1min", "1-30min", "30-60min", "1-2hr", "2-6hr", ">6hr"}
	counts, n := h.Buckets(), h.Count()
	for i, l := range labels {
		frac := 0.0
		if n > 0 {
			frac = float64(counts[i]) / float64(n)
		}
		r.Table.AddRow(l, fmt.Sprint(counts[i]), fmt.Sprintf("%.2f", frac))
	}
	return r
}

// --- Fig. 9: distribution of queries by time step accessed --------------

// Fig9Result is the per-step access frequency.
type Fig9Result struct {
	Counts []int
	Table  textplot.Table
}

// Fig9 reproduces the time-step access skew.
func Fig9(s Scale) *Fig9Result {
	w := workload.Generate(s.workloadConfig(1, s.Seed))
	r := &Fig9Result{Counts: w.StepAccess}
	total := 0
	for _, c := range w.StepAccess {
		total += c
	}
	r.Table.Header = []string{"step", "sim time (s)", "queries", "fraction"}
	for step, c := range w.StepAccess {
		simT := 2.0 * float64(step) / 1024 // paper time base: 1024 steps over 2 s
		r.Table.AddRow(fmt.Sprint(step), fmt.Sprintf("%.4f", simT),
			fmt.Sprint(c), fmt.Sprintf("%.3f", float64(c)/float64(total)))
	}
	return r
}

// --- Fig. 10: query throughput by scheduling algorithm ------------------

// Fig10Row is one bar of Fig. 10.
type Fig10Row struct {
	Algorithm        system.Scheduler
	Throughput       float64
	SpeedupVsNoShare float64
}

// Fig10Result is the full comparison.
type Fig10Result struct {
	Rows  []Fig10Row
	Table textplot.Table
}

// Fig10 compares the five schedulers on the evaluation trace (k = 15,
// α₀ = 0.5, as in §VI.B).
func Fig10(s Scale) (*Fig10Result, error) {
	r := &Fig10Result{}
	r.Table.Header = []string{"algorithm", "throughput (q/s)", "vs NoShare"}
	var base float64
	for _, alg := range AllAlgorithms() {
		rep, err := RunAlgorithm(s, alg, s.BatchSize)
		if err != nil {
			return nil, err
		}
		if alg == system.SchedNoShare {
			base = rep.ThroughputQPS
		}
		row := Fig10Row{Algorithm: alg, Throughput: rep.ThroughputQPS}
		if base > 0 {
			row.SpeedupVsNoShare = rep.ThroughputQPS / base
		}
		r.Rows = append(r.Rows, row)
		r.Table.AddRow(alg.String(), fmt.Sprintf("%.3f", row.Throughput),
			fmt.Sprintf("%.2fx", row.SpeedupVsNoShare))
	}
	return r, nil
}

// --- Fig. 11: sensitivity to workload saturation -------------------------

// Fig11Point is one (speed-up, algorithm) measurement.
type Fig11Point struct {
	SpeedUp     float64
	Algorithm   system.Scheduler
	Throughput  float64
	MeanRespSec float64
	FinalAlpha  float64
}

// Fig11Result carries both panels: throughput (a) and response time (b).
type Fig11Result struct {
	Points []Fig11Point
	Table  textplot.Table
}

// DefaultSpeedUps is the Fig. 11 x axis.
func DefaultSpeedUps() []float64 { return []float64{0.25, 0.5, 1, 2, 4, 8} }

// Fig11 sweeps workload saturation for the four headline algorithms. The
// sweep is based on a slower trace (16x the default inter-job gap) so the
// low end of the speed-up axis is genuinely unsaturated and the system
// transitions into saturation as the speed-up grows, as in the paper;
// speed-up 16 on this axis corresponds to the Fig. 10 trace.
func Fig11(s Scale, speedUps []float64) (*Fig11Result, error) {
	if len(speedUps) == 0 {
		speedUps = DefaultSpeedUps()
	}
	s.MeanJobGap *= 16
	algs := []system.Scheduler{system.SchedNoShare, system.SchedLifeRaft1,
		system.SchedLifeRaft2, system.SchedJAWS2}
	r := &Fig11Result{}
	r.Table.Header = []string{"speedup", "algorithm", "throughput (q/s)", "mean resp (s)", "final α"}

	// Every (speed-up, algorithm) cell is an independent simulation with
	// its own store, cache, and virtual clock, so the grid runs
	// concurrently; results stay in deterministic grid order.
	type cell struct {
		point Fig11Point
		err   error
	}
	grid := make([]cell, len(speedUps)*len(algs))
	var wg sync.WaitGroup
	for i, su := range speedUps {
		for j, alg := range algs {
			wg.Add(1)
			go func(idx int, su float64, alg system.Scheduler) {
				defer wg.Done()
				rep, err := RunAlgorithmOn(s, alg, FreshJobs(s, su), s.BatchSize)
				if err != nil {
					grid[idx] = cell{err: err}
					return
				}
				grid[idx] = cell{point: Fig11Point{
					SpeedUp:     su,
					Algorithm:   alg,
					Throughput:  rep.ThroughputQPS,
					MeanRespSec: rep.MeanResponse.Seconds(),
					FinalAlpha:  rep.FinalAlpha,
				}}
			}(i*len(algs)+j, su, alg)
		}
	}
	wg.Wait()
	for _, c := range grid {
		if c.err != nil {
			return nil, c.err
		}
		p := c.point
		r.Points = append(r.Points, p)
		r.Table.AddRow(fmt.Sprintf("%.2f", p.SpeedUp), p.Algorithm.String(),
			fmt.Sprintf("%.3f", p.Throughput),
			fmt.Sprintf("%.3f", p.MeanRespSec),
			fmt.Sprintf("%.2f", p.FinalAlpha))
	}
	return r, nil
}

// --- Fig. 12: sensitivity to batch size k --------------------------------

// Fig12Point is one batch-size measurement.
type Fig12Point struct {
	K          int
	Throughput float64
	CacheHit   float64
}

// Fig12Result is the k sweep plus the LifeRaft2 reference line.
type Fig12Result struct {
	Points            []Fig12Point
	LifeRaft2Baseline float64
	Table             textplot.Table
}

// DefaultBatchSizes is the Fig. 12 x axis.
func DefaultBatchSizes() []int { return []int{1, 2, 5, 10, 15, 20, 30, 50, 75, 100} }

// Fig12 sweeps JAWS's batch size with job-awareness on, and measures the
// LifeRaft2 baseline for reference (the paper notes even k = 1 beats it).
func Fig12(s Scale, ks []int) (*Fig12Result, error) {
	if len(ks) == 0 {
		ks = DefaultBatchSizes()
	}
	r := &Fig12Result{}
	r.Table.Header = []string{"k", "throughput (q/s)", "cache hit"}

	// The baseline and every k are independent simulations: run them
	// concurrently and assemble in order.
	type slot struct {
		point Fig12Point
		err   error
	}
	slots := make([]slot, len(ks))
	var baseTP float64
	var baseErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		base, err := RunAlgorithm(s, system.SchedLifeRaft2, 1)
		if err != nil {
			baseErr = err
			return
		}
		baseTP = base.ThroughputQPS
	}()
	for i, k := range ks {
		wg.Add(1)
		go func(i, k int) {
			defer wg.Done()
			rep, err := RunAlgorithm(s, system.SchedJAWS2, k)
			if err != nil {
				slots[i] = slot{err: err}
				return
			}
			slots[i] = slot{point: Fig12Point{K: k, Throughput: rep.ThroughputQPS, CacheHit: rep.CacheStats.HitRatio()}}
		}(i, k)
	}
	wg.Wait()
	if baseErr != nil {
		return nil, baseErr
	}
	r.LifeRaft2Baseline = baseTP
	for _, sl := range slots {
		if sl.err != nil {
			return nil, sl.err
		}
		p := sl.point
		r.Points = append(r.Points, p)
		r.Table.AddRow(fmt.Sprint(p.K), fmt.Sprintf("%.3f", p.Throughput), fmt.Sprintf("%.2f", p.CacheHit))
	}
	r.Table.AddRow("LifeRaft2", fmt.Sprintf("%.3f", r.LifeRaft2Baseline), "-")
	return r, nil
}

// --- Table I: cache replacement algorithms -------------------------------

// Table1Row is one cache policy's measured line.
type Table1Row struct {
	Policy      string
	CacheHit    float64
	SecPerQry   float64
	OverheadQry time.Duration // real wall-clock policy time per query
}

// Table1Result is the policy comparison.
type Table1Result struct {
	Rows  []Table1Row
	Table textplot.Table
}

// Table1 compares the cache policies — LRU-K, SLRU and URC, one row each
// in the enum's order — under JAWS1 (as in §VI: cache replacement studied
// without the job-aware variable).
func Table1(s Scale) (*Table1Result, error) {
	r := &Table1Result{}
	r.Table.Header = []string{"policy", "cache hit", "sec/qry", "overhead/qry"}
	for v := range system.CachePolicyNames() {
		pol := system.CachePolicy(v)
		rep, err := RunPolicy(s, pol)
		if err != nil {
			return nil, err
		}
		row := Table1Row{
			Policy:    pol.String(),
			CacheHit:  rep.CacheStats.HitRatio(),
			SecPerQry: rep.Elapsed.Seconds() / float64(rep.Completed),
		}
		if rep.Completed > 0 {
			row.OverheadQry = rep.CacheStats.PolicyTime / time.Duration(rep.Completed)
		}
		r.Rows = append(r.Rows, row)
		r.Table.AddRow(row.Policy,
			fmt.Sprintf("%.0f%%", row.CacheHit*100),
			fmt.Sprintf("%.3f", row.SecPerQry),
			row.OverheadQry.String())
	}
	return r, nil
}

// --- §IV.A / §VI.A: job identification accuracy --------------------------

// JobIDResult records the heuristic accuracy and job coverage.
type JobIDResult struct {
	Accuracy      float64
	QueriesInJobs float64
	Table         textplot.Table
}

// JobID measures the job-identification heuristics on the synthetic log.
// The log is generated at real-time pacing (minutes between jobs, like the
// production SQL log the paper mined); the replay experiments then
// compress time with the speed-up knob, which does not alter the log's
// identification structure.
func JobID(s Scale) *JobIDResult {
	cfg := s.workloadConfig(1, s.Seed)
	cfg.MeanJobGap = 3 * time.Minute
	w := workload.Generate(cfg)
	assignment := job.Identify(w.Records, job.DefaultIdentifyParams())
	acc := job.Accuracy(w.Records, assignment)
	multi, total := 0, 0
	sizes := map[int64]int{}
	for _, rec := range w.Records {
		sizes[assignment[rec.QueryID]]++
	}
	for _, rec := range w.Records {
		total++
		if sizes[assignment[rec.QueryID]] > 1 {
			multi++
		}
	}
	r := &JobIDResult{Accuracy: acc, QueriesInJobs: float64(multi) / float64(total)}
	r.Table.Header = []string{"measure", "value"}
	r.Table.AddRow("pairwise accuracy", fmt.Sprintf("%.3f", acc))
	r.Table.AddRow("queries in inferred jobs", fmt.Sprintf("%.1f%%", r.QueriesInJobs*100))
	r.Table.AddRow("paper claim", "heuristics highly accurate; >95% of queries in jobs")
	return r
}
