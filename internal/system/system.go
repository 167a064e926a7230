// Package system assembles one simulated Turbulence node — atom store ×
// atom cache × scheduler × engine — from one description. Every experiment
// of the paper and every node of its Fig. 7 cluster is the same node under
// a different setting, so every caller that needs one (the jaws facade and
// the daemon behind it, the cluster's node runner, the experiment suite,
// the oracle's recording harness) states the setting as a Config and builds
// through here. Open owns the defaults, the tail-spec validation and the
// cache-policy switch, NewScheduler the scheduler switch, EngineConfig the
// engine.Config literal; a caller with something of its own to add adjusts
// the engine config that returns (DESIGN.md §2, "One assembler").
package system

import (
	"fmt"

	"jaws/internal/cache"
	"jaws/internal/engine"
	"jaws/internal/fault"
	"jaws/internal/geom"
	"jaws/internal/job"
	"jaws/internal/obs"
	"jaws/internal/sched"
	"jaws/internal/store"
)

// Config describes a single-node JAWS system. The zero value is the
// paper's evaluation setup at simulation scale — a 31-step store, k = 15,
// α₀ = 0.5, a 256-atom (≈2 GB nominal) LRU-K cache, runs of 32 queries —
// under its NoShare baseline; set Scheduler for the rest of the lineup.
type Config struct {
	// Space is the grid geometry; zero means 256³ voxels in 32³ atoms.
	Space geom.Space
	// Steps is the number of stored time steps; zero means 31 (§VI).
	Steps int
	// Seed drives the synthetic turbulence field.
	Seed int64
	// SampleSide is the in-memory atom resolution; zero means 8.
	SampleSide int
	// SampleGhost is the atoms' replication halo in samples per side
	// (§III.A stores four voxels of replication); zero disables.
	SampleGhost int
	// Scheduler picks the algorithm; the zero value is SchedNoShare, the
	// paper's system is SchedJAWS2.
	Scheduler Scheduler
	// BatchSize is JAWS's k; zero means 15.
	BatchSize int
	// InitialAlpha seeds the age bias; zero means 0.5 for JAWS (set
	// AlphaSet to force 0).
	InitialAlpha float64
	// AlphaSet forces InitialAlpha to be used verbatim (including 0).
	AlphaSet bool
	// AdaptiveOff disables §V.A adaptation for JAWS schedulers, whose α
	// then stays at InitialAlpha; adaptation is on by default.
	AdaptiveOff bool
	// NoMortonOrder makes JAWS execute a batch in score order instead of
	// Morton order (ablation: the sequential-I/O half of two-level
	// batching switched off).
	NoMortonOrder bool
	// Policy picks the cache replacement algorithm; default PolicyLRUK.
	Policy CachePolicy
	// CacheAtoms is the cache capacity in atoms; zero means 256 (the
	// paper's 2 GB of 8 MB atoms).
	CacheAtoms int
	// ProtectedFrac is SLRU's protected share; zero means 0.05.
	ProtectedFrac float64
	// Cost is the T_b / T_m model of Eq. 1, handed as given to both the
	// scheduler and the engine; zero means sched.DefaultCost() to both
	// (TestCostHandedAsGiven).
	Cost sched.CostModel
	// RunLength is r, queries per adaptation run; zero means 32.
	RunLength int
	// Compute evaluates interpolation kernels for real.
	Compute bool
	// KeepResults retains per-position outputs in the report.
	KeepResults bool
	// Parallelism is ignored: the engine evaluates every batch on its
	// simulation goroutine. It stays only because benchmark/ reads it;
	// ROADMAP 1a(i) deletes it.
	Parallelism int
	// Prefetch enables trajectory-extrapolation prefetching (§VII):
	// predicted atoms of an ordered job's next query are loaded during
	// its think time.
	Prefetch bool
	// DeclareJobs registers all ordered jobs in the gating graph before
	// execution (the §VII "encapsulate jobs in the database" direction);
	// only meaningful with SchedJAWS2.
	DeclareJobs bool
	// QoSStretch, when positive, gives the JAWS scheduler the §VII
	// proportional completion-time guarantee: each query's deadline is
	// arrival + QoSStretch × its isolated service-time estimate, and
	// atoms with imminent deadlines are served earliest-deadline-first
	// (urgent 2 s of virtual time ahead of the deadline, sched.NewQoS's
	// horizon).
	QoSStretch float64
	// TailPolicy, when non-empty, installs the tail-attacking policies of
	// DESIGN.md §5 on the JAWS scheduler (gate-aware admission, cross-step
	// batching, adaptive batch sizing). The spec grammar is
	// sched.ParsePolicySpec's, e.g. "gate-aware;adaptive-batch:min=4,max=32".
	// Requires a JAWS scheduler; composes with QoSStretch.
	TailPolicy string
	// Obs enables scheduling-decision tracing and metrics for every run of
	// the system; nil (the default) keeps the engine uninstrumented.
	Obs *obs.Obs
	// Node says which node of a deployment this system is — a jawsd
	// replica's index, a cluster node's — and is the one place that does:
	// it labels the system's decision flight records, so a shared trace
	// splits back into per-node timelines, and it is the node the '@node'
	// rules of Fault address and whose fault stream the injector draws.
	Node int
	// Fault schedules deterministic fault injection (disk errors, latency
	// spikes, cache corruption, a node crash) for every run of the
	// system; the empty spec leaves the fast path untouched.
	Fault fault.Spec
	// FaultSeed seeds the injector when Fault is non-empty; runs with the
	// same (Fault, FaultSeed, Node) replay identically.
	FaultSeed int64
}

// WithDefaults returns cfg with every zero field that has a default set to
// it — the description Open builds from, and the only defaults block: a
// caller that needs a defaulted value before it opens anything (the cluster
// partitions on Space) reads it here.
func (cfg Config) WithDefaults() Config {
	if cfg.Space.GridSide == 0 {
		cfg.Space = geom.Space{GridSide: 256, AtomSide: 32}
	}
	if cfg.Steps == 0 {
		cfg.Steps = 31
	}
	if cfg.CacheAtoms == 0 {
		cfg.CacheAtoms = 256
	}
	if cfg.ProtectedFrac == 0 {
		cfg.ProtectedFrac = 0.05
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 15
	}
	if !cfg.AlphaSet && cfg.InitialAlpha == 0 {
		cfg.InitialAlpha = 0.5
	}
	return cfg
}

// System is an assembled single-node JAWS instance: a store and a cache
// that stay warm across runs, and a fresh scheduler and engine per run.
type System struct {
	cfg      Config
	tailSpec sched.PolicySpec
	store    *store.Store
	cache    *cache.Cache
}

// Open validates the configuration and builds the store and cache.
func Open(cfg Config) (*System, error) {
	cfg = cfg.WithDefaults()
	var tailSpec sched.PolicySpec
	if cfg.TailPolicy != "" {
		spec, err := sched.ParsePolicySpec(cfg.TailPolicy)
		if err != nil {
			return nil, fmt.Errorf("jaws: %w", err)
		}
		if cfg.Scheduler != SchedJAWS1 && cfg.Scheduler != SchedJAWS2 {
			return nil, fmt.Errorf("jaws: TailPolicy requires a JAWS scheduler, not %v", cfg.Scheduler)
		}
		tailSpec = spec
	}
	st, err := store.Open(store.Config{
		Space:       cfg.Space,
		Steps:       cfg.Steps,
		SampleSide:  cfg.SampleSide,
		SampleGhost: cfg.SampleGhost,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	var pol cache.Policy
	switch cfg.Policy {
	case PolicyLRUK:
		pol = cache.NewLRUK(2, 0)
	case PolicySLRU:
		pol = cache.NewSLRU(cfg.CacheAtoms, cfg.ProtectedFrac)
	case PolicyURC:
		pol = cache.NewURC()
	default:
		return nil, fmt.Errorf("jaws: unknown cache policy %v", cfg.Policy)
	}
	return &System{cfg: cfg, tailSpec: tailSpec, store: st, cache: cache.New(cfg.CacheAtoms, pol)}, nil
}

// Store exposes the underlying atom store (examples use its Field for
// ground-truth checks).
func (s *System) Store() *store.Store { return s.store }

// Cache exposes the system's atom cache.
func (s *System) Cache() *cache.Cache { return s.cache }

// CacheStats returns the cache counters accumulated so far.
func (s *System) CacheStats() cache.Stats { return s.cache.Stats() }

// NewScheduler builds a fresh scheduler of the configured kind against the
// system cache.
func (s *System) NewScheduler() sched.Scheduler {
	resident := s.cache.Contains
	switch s.cfg.Scheduler {
	case SchedNoShare:
		return sched.NewNoShare()
	case SchedLifeRaft1:
		return sched.NewLifeRaft(s.cfg.Cost, 1, resident)
	case SchedLifeRaft2:
		return sched.NewLifeRaft(s.cfg.Cost, 0, resident)
	default: // SchedJAWS1, SchedJAWS2
		inner := sched.NewJAWS(sched.JAWSConfig{
			Cost:          s.cfg.Cost,
			BatchSize:     s.cfg.BatchSize,
			InitialAlpha:  s.cfg.InitialAlpha,
			Adaptive:      !s.cfg.AdaptiveOff,
			Resident:      resident,
			NoMortonOrder: s.cfg.NoMortonOrder,
		})
		// Both install hooks on inner itself (one selector, DESIGN.md §5).
		s.tailSpec.Wrap(inner)
		if s.cfg.QoSStretch > 0 {
			sched.NewQoS(inner, s.cfg.Cost, s.cfg.QoSStretch, 0)
		}
		return inner
	}
}

// EngineConfig is the engine configuration of one run of the system under
// sc: NewScheduler's result, or a wrapper around it. With NewScheduler it
// is the only reader of Config.Cost, handed on as given: the engine, like
// the scheduler, takes a zero one for sched.DefaultCost()
// (TestCostHandedAsGiven).
func (s *System) EngineConfig(sc sched.Scheduler) engine.Config {
	return engine.Config{
		Store:       s.store,
		Cache:       s.cache,
		Sched:       sc,
		Cost:        s.cfg.Cost,
		JobAware:    s.cfg.Scheduler == SchedJAWS2,
		RunLength:   s.cfg.RunLength,
		Compute:     s.cfg.Compute,
		KeepResults: s.cfg.KeepResults,
		// NoShare means no I/O sharing across queries (§VI): flush the
		// cache after each query, as the paper's baseline does.
		FlushPerDecision: s.cfg.Scheduler == SchedNoShare,
		Prefetch:         s.cfg.Prefetch,
		DeclareUpfront:   s.cfg.DeclareJobs,
		Obs:              s.cfg.Obs,
		EngineID:         s.cfg.Node,
		Fault:            fault.New(s.cfg.Fault, s.cfg.FaultSeed, s.cfg.Node),
	}
}

// Run executes the jobs to completion on a fresh scheduler and engine (the
// cache stays warm across calls) and returns the report.
func (s *System) Run(jobs []*job.Job) (*engine.Report, error) {
	e, err := engine.New(s.EngineConfig(s.NewScheduler()))
	if err != nil {
		return nil, err
	}
	return e.Run(jobs)
}

// Session starts an interactive session over the system on a fresh
// scheduler and engine. A session implies KeepResults (results are its
// product) and ignores DeclareJobs (jobs arrive a Submit at a time).
func (s *System) Session() (*engine.Session, error) {
	return engine.NewSession(s.EngineConfig(s.NewScheduler()))
}
