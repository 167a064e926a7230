package oracle

import (
	"sort"
	"time"

	"jaws/internal/cache"
	"jaws/internal/engine"
	"jaws/internal/fault"
	"jaws/internal/geom"
	"jaws/internal/job"
	"jaws/internal/jobgraph"
	"jaws/internal/obs"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/store"
	"jaws/internal/system"
	"jaws/internal/workload"
)

// CaptureConfig assembles one recorded run for differential checking.
type CaptureConfig struct {
	// Algo and Params pick the scheduler under test (tail policies and QoS
	// deadlines included, see Params).
	Algo   Algo
	Params Params
	// Workload parameterizes the synthetic trace. Zero Space/Steps default
	// to a deliberately tiny store (128³ grid in 32³ atoms over 5 steps)
	// so hundreds of seeds stay affordable in the test suite.
	Workload workload.Config
	// CacheAtoms is the cache capacity; zero means 32.
	CacheAtoms int
	// ProtectedFrac is the SLRU protected share; zero means 0.1.
	ProtectedFrac float64
	// RunLength is r, queries per adaptation run; zero means 8 (small, so
	// short runs still exercise OnRunEnd).
	RunLength int
	// JobAware enables gated execution (AlgoJAWS only: the node
	// description's JAWS2).
	JobAware bool
	// FaultSpec, when non-empty, schedules deterministic fault injection
	// (see internal/fault for the grammar); FaultSeed seeds it.
	FaultSpec string
	FaultSeed int64
}

// Decision is one engine-level scheduling decision, exported through the
// engine's OnDecision hook.
type Decision struct {
	Now     time.Duration
	Batches []sched.Batch
}

// Capture is one recorded run: the scheduler op log, the engine-level
// decision trace, the lifecycle spans, and the final cache accounting.
// RunErr carries the engine's error for fault-schedule runs that crash or
// abort; the log is then a valid prefix.
type Capture struct {
	Log        *OpLog
	Decisions  []Decision
	Spans      []obs.Span
	Report     *engine.Report
	RunErr     error
	CacheStats cache.Stats
	CacheLen   int
	Jobs       []*job.Job
	// Partners maps each gated query of the workload to its co-scheduled
	// partners, derived from the reference ModelGraph (JobAware only).
	Partners map[jobgraph.Ref][]jobgraph.Ref
}

// Run executes the configured workload on a real engine with a recording
// scheduler and returns the capture. The run is deterministic in the
// configuration.
func Run(cfg CaptureConfig) (*Capture, error) {
	if cfg.Workload.Space.GridSide == 0 {
		cfg.Workload.Space = geom.Space{GridSide: 128, AtomSide: 32}
	}
	if cfg.Workload.Steps == 0 {
		cfg.Workload.Steps = 5
	}
	if cfg.CacheAtoms == 0 {
		cfg.CacheAtoms = 32
	}
	if cfg.ProtectedFrac == 0 {
		cfg.ProtectedFrac = 0.1
	}
	if cfg.RunLength == 0 {
		cfg.RunLength = 8
	}
	wl := workload.Generate(cfg.Workload)

	spans := obs.NewSpanAgg()
	node := system.Config{
		Space:         cfg.Workload.Space,
		Steps:         cfg.Workload.Steps,
		Seed:          cfg.Workload.Seed,
		Scheduler:     cfg.scheduler(),
		Policy:        system.PolicySLRU,
		CacheAtoms:    cfg.CacheAtoms,
		ProtectedFrac: cfg.ProtectedFrac,
		Cost:          cfg.Params.Cost,
		RunLength:     cfg.RunLength,
		Obs:           &obs.Obs{Spans: spans},
		FaultSeed:     cfg.FaultSeed,
	}
	if cfg.FaultSpec != "" {
		spec, err := fault.ParseSpec(cfg.FaultSpec)
		if err != nil {
			return nil, err
		}
		node.Fault = spec
	}
	sys, err := system.Open(node)
	if err != nil {
		return nil, err
	}
	ch := sys.Cache()

	// The oracle's own: the scheduler under test is StandardTarget's (α and
	// policy specs the node description's five names cannot express) inside
	// a recorder, and the engine reports every decision.
	rec := NewRecordingSched(StandardTarget(cfg.Algo, cfg.Params).New(ch.Contains), ch.Contains)
	cap := &Capture{Jobs: wl.Jobs}
	ec := sys.EngineConfig(rec)
	// Upfront declaration makes the gating graph a pure function of the
	// job set, so the reference ModelGraph's partner sets are exact at
	// every point of the run (incremental registration would make them
	// time-dependent); it is also the stronger discipline — queries
	// genuinely wait for partners from later-arriving jobs.
	ec.DeclareUpfront = cfg.JobAware
	ec.OnDecision = func(now time.Duration, batches []sched.Batch) {
		cap.Decisions = append(cap.Decisions, Decision{Now: now, Batches: rec.Snapshot(batches)})
	}
	eng, err := engine.New(ec)
	if err != nil {
		return nil, err
	}
	cap.Report, cap.RunErr = eng.Run(wl.Jobs)
	cap.Log = rec.Log()
	cap.Spans = spans.Spans()
	cap.CacheStats = ch.Stats()
	cap.CacheLen = ch.Len()
	if cfg.JobAware {
		cap.Partners = referencePartners(wl.Jobs, node.Space)
	}
	return cap, nil
}

// scheduler is the node description's name for the algorithm under test;
// the engine reads of it whether to flush per decision and whether to gate.
func (cfg CaptureConfig) scheduler() system.Scheduler {
	switch {
	case cfg.Algo == AlgoNoShare:
		return system.SchedNoShare
	case cfg.Algo == AlgoLifeRaft:
		return system.SchedLifeRaft2
	case cfg.JobAware:
		return system.SchedJAWS2
	}
	return system.SchedJAWS1
}

// referencePartners derives each gated query's co-scheduled partner set
// from the reference ModelGraph, registering ordered jobs in the order
// the engine does: first-query arrival order, stable on ties (the
// future-event list pops equal times in push order).
func referencePartners(jobs []*job.Job, space geom.Space) map[jobgraph.Ref][]jobgraph.Ref {
	ordered := make([]*job.Job, 0, len(jobs))
	for _, j := range jobs {
		if j.Type == job.Ordered {
			ordered = append(ordered, j)
		}
	}
	sort.SliceStable(ordered, func(i, k int) bool {
		return ordered[i].Queries[0].Arrival < ordered[k].Queries[0].Arrival
	})
	atomsOf := make(map[jobgraph.Ref]map[store.AtomID]bool)
	for _, j := range ordered {
		for s, q := range j.Queries {
			atomsOf[jobgraph.Ref{Job: j.ID, Seq: s}] = query.Atoms(q, space)
		}
	}
	g := NewModelGraph(func(a, b jobgraph.Ref) bool {
		sa, sb := atomsOf[a], atomsOf[b]
		if len(sa) > len(sb) {
			sa, sb = sb, sa
		}
		for id := range sa {
			if sb[id] {
				return true
			}
		}
		return false
	})
	for _, j := range ordered {
		if err := g.AddJob(j.ID, len(j.Queries)); err != nil {
			panic(err) // Engine.register refuses the same job the same way
		}
	}
	out := make(map[jobgraph.Ref][]jobgraph.Ref)
	for _, j := range ordered {
		for s := range j.Queries {
			r := jobgraph.Ref{Job: j.ID, Seq: s}
			if ps := g.Partners(r); len(ps) > 0 {
				out[r] = ps
			}
		}
	}
	return out
}
