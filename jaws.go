// Package jaws is a job-aware, data-driven batch scheduler for
// data-intensive scientific database clusters, reproducing "JAWS:
// Job-Aware Workload Scheduling for the Exploration of Turbulence
// Simulations" (SC 2010).
//
// The package bundles a complete simulated Turbulence database node —
// Morton-indexed atom store over a simulated disk array, an externally
// managed atom cache with pluggable replacement (LRU-K, SLRU, URC), query
// pre-processing into per-atom sub-queries, and the NoShare / LifeRaft /
// JAWS scheduler family with two-level batching, adaptive starvation
// resistance, and job-aware gated execution.
//
// Quick start:
//
//	sys, err := jaws.Open(jaws.Config{})
//	if err != nil { ... }
//	w := jaws.GenerateWorkload(jaws.WorkloadConfig{Jobs: 100})
//	report, err := sys.Run(w.Jobs)
//	fmt.Printf("%.2f queries/sec\n", report.ThroughputQPS)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package jaws

import (
	"fmt"
	"time"

	"jaws/internal/cache"
	"jaws/internal/cluster"
	"jaws/internal/engine"
	"jaws/internal/fault"
	"jaws/internal/field"
	"jaws/internal/geom"
	"jaws/internal/job"
	"jaws/internal/obs"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/store"
	"jaws/internal/workload"
)

// Core model types, re-exported for the public API.
type (
	// Space describes one time step's voxel grid and atom partitioning.
	Space = geom.Space
	// Position is a point in the periodic simulation domain [0, 2π)³.
	Position = geom.Position
	// AtomCoord identifies an atom within one time step.
	AtomCoord = geom.AtomCoord
	// AtomID identifies a storage block: (time step, Morton code).
	AtomID = store.AtomID
	// Kernel selects the per-position computation.
	Kernel = field.Kernel
	// Query is a set of positions evaluated with a kernel at one step.
	Query = query.Query
	// QueryID identifies a query.
	QueryID = query.ID
	// SubQuery is the per-atom scheduling unit.
	SubQuery = query.SubQuery
	// Job is an experiment: a batched or ordered collection of queries.
	Job = job.Job
	// JobType distinguishes batched from ordered jobs.
	JobType = job.Type
	// TraceRecord is one raw query-log line for job identification.
	TraceRecord = job.TraceRecord
	// Report summarizes an executed workload.
	Report = engine.Report
	// RunStats is one adaptation run's performance.
	RunStats = engine.RunStats
	// Workload is a generated trace.
	Workload = workload.Workload
	// WorkloadConfig parameterizes the trace generator.
	WorkloadConfig = workload.Config
	// CostModel carries the T_b / T_m constants of Eq. 1.
	CostModel = sched.CostModel
	// Gradient is the velocity-gradient tensor du_i/dx_j returned by the
	// analytic field's EvalGradient (reach it via System.Store().Field()).
	Gradient = field.Gradient
	// ClusterReport aggregates a multi-node run.
	ClusterReport = cluster.Report
	// Obs bundles a tracer and a metrics registry for a run; see the
	// internal/obs package docs for the zero-overhead contract.
	Obs = obs.Obs
	// Tracer records virtual-clock-stamped scheduling/cache/disk/gating
	// events into a ring buffer and an optional JSONL sink.
	Tracer = obs.Tracer
	// TraceEvent is one structured trace record.
	TraceEvent = obs.Event
	// Registry holds named counters, gauges and histograms with a
	// Prometheus-style text exposition (WriteText).
	Registry = obs.Registry
	// Span is the complete lifecycle record of one query, its response
	// time attributed exhaustively to phases (the attribution invariant:
	// phase components sum exactly to Done − Arrival).
	Span = obs.Span
	// SpanAgg pools completed spans; set Obs.Spans to collect them.
	SpanAgg = obs.SpanAgg
	// SpanSummary is the aggregate view: percentiles, per-phase
	// attribution, and the starvation tail.
	SpanSummary = obs.SpanSummary
	// FaultSpec is a parsed deterministic fault schedule (see
	// ParseFaultSpec for the grammar).
	FaultSpec = fault.Spec
	// FaultCounts tallies the faults an injector imposed during a run.
	FaultCounts = fault.Counts
	// NodeCrashError is returned by a run whose node the fault injector
	// crashed; the cluster layer recovers via replica failover.
	NodeCrashError = fault.NodeCrashError
)

// ParseFaultSpec parses a fault schedule such as
// "crash@1:at=5s;disk-transient:p=0.05,until=30s" (see internal/fault for
// the full grammar). The empty string yields the empty (disabled) spec.
var ParseFaultSpec = fault.ParseSpec

// NewTracer creates a tracer keeping the last ringSize events in memory
// (obs.DefaultRingSize if ≤ 0); sink, when non-nil, receives every event
// as JSONL.
var NewTracer = obs.NewTracer

// NewRegistry creates an empty metrics registry.
var NewRegistry = obs.NewRegistry

// NewSpanAgg creates an empty span aggregator for Obs.Spans.
var NewSpanAgg = obs.NewSpanAgg

// Job types.
const (
	Batched = job.Batched
	Ordered = job.Ordered
)

// Interpolation kernels, mirroring the Turbulence web services.
const (
	KernelNone      = field.KernelNone
	KernelTrilinear = field.KernelTrilinear
	KernelLag4      = field.KernelLag4
	KernelLag6      = field.KernelLag6
	KernelLag8      = field.KernelLag8
)

// Scheduler selects the scheduling algorithm for a System.
type Scheduler int

const (
	// SchedNoShare evaluates queries independently in arrival order.
	SchedNoShare Scheduler = iota
	// SchedLifeRaft1 is LifeRaft with age bias α = 1 (arrival-order
	// scheduling with incidental co-scheduling of same-atom requests).
	SchedLifeRaft1
	// SchedLifeRaft2 is LifeRaft with α = 0, the contention-based
	// throughput maximizer.
	SchedLifeRaft2
	// SchedJAWS1 is JAWS without job-awareness: two-level scheduling plus
	// adaptive starvation resistance.
	SchedJAWS1
	// SchedJAWS2 is full JAWS: SchedJAWS1 plus job-aware gated execution.
	SchedJAWS2
)

// String names the scheduler.
func (s Scheduler) String() string {
	switch s {
	case SchedNoShare:
		return "NoShare"
	case SchedLifeRaft1:
		return "LifeRaft1"
	case SchedLifeRaft2:
		return "LifeRaft2"
	case SchedJAWS1:
		return "JAWS1"
	case SchedJAWS2:
		return "JAWS2"
	}
	return fmt.Sprintf("Scheduler(%d)", int(s))
}

// CachePolicy selects the replacement algorithm (Table I).
type CachePolicy int

const (
	// PolicyLRUK is the LRU-K baseline (SQL Server's page replacement is
	// a variant of it).
	PolicyLRUK CachePolicy = iota
	// PolicySLRU is the segmented LRU with a protected segment.
	PolicySLRU
	// PolicyURC is utility-ranked caching coordinated with the scheduler.
	PolicyURC
	// PolicyLRU is plain LRU (ablation).
	PolicyLRU
	// PolicyFIFO is FIFO (ablation).
	PolicyFIFO
	// PolicyTwoQ is the 2Q algorithm of Johnson & Shasha, one of SLRU's
	// antecedents (ablation).
	PolicyTwoQ
)

// String names the policy.
func (p CachePolicy) String() string {
	switch p {
	case PolicyLRUK:
		return "LRU-K"
	case PolicySLRU:
		return "SLRU"
	case PolicyURC:
		return "URC"
	case PolicyLRU:
		return "LRU"
	case PolicyFIFO:
		return "FIFO"
	case PolicyTwoQ:
		return "2Q"
	}
	return fmt.Sprintf("CachePolicy(%d)", int(p))
}

// Config assembles a single-node JAWS system. The zero value reproduces
// the paper's evaluation setup at simulation scale: a 31-step store,
// full JAWS scheduling with k = 15 and α₀ = 0.5, a 256-atom (≈2 GB
// nominal) LRU-K cache, and runs of 32 queries.
type Config struct {
	// Space is the grid geometry; zero means 256³ voxels in 32³ atoms.
	Space Space
	// Steps is the number of stored time steps; zero means 31 (§VI).
	Steps int
	// Seed drives the synthetic turbulence field.
	Seed int64
	// SampleSide is the in-memory atom resolution; zero means 8.
	SampleSide int
	// SampleGhost is the atoms' replication halo in samples per side
	// (§III.A stores four voxels of replication); zero disables.
	SampleGhost int
	// Scheduler picks the algorithm; default SchedJAWS2.
	Scheduler Scheduler
	// BatchSize is JAWS's k; zero means 15.
	BatchSize int
	// InitialAlpha seeds the age bias; NaN-free zero means 0.5 for JAWS
	// (set AlphaSet to force 0).
	InitialAlpha float64
	// AlphaSet forces InitialAlpha to be used verbatim (including 0).
	AlphaSet bool
	// Adaptive enables §V.A adaptation for JAWS schedulers; default on.
	AdaptiveOff bool
	// Policy picks the cache replacement algorithm; default PolicyLRUK.
	Policy CachePolicy
	// CacheAtoms is the cache capacity in atoms; zero means 256 (the
	// paper's 2 GB of 8 MB atoms).
	CacheAtoms int
	// ProtectedFrac is SLRU's protected share; zero means 0.05.
	ProtectedFrac float64
	// Cost overrides the T_b / T_m model (zero: derived).
	Cost CostModel
	// RunLength is r, queries per adaptation run; zero means 32.
	RunLength int
	// Compute evaluates interpolation kernels for real.
	Compute bool
	// KeepResults retains per-position outputs in the report.
	KeepResults bool
	// Parallelism bounds kernel-evaluation workers; zero means GOMAXPROCS.
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
	// atoms with imminent deadlines are served earliest-deadline-first.
	QoSStretch float64
	// QoSHorizon is how far ahead of a deadline a query becomes urgent;
	// zero means 2 s of virtual time.
	QoSHorizon time.Duration
	// TailPolicy, when non-empty, installs the tail-attacking policies of
	// DESIGN.md §18 on the JAWS scheduler (gate-aware admission, cross-step
	// batching, adaptive batch sizing). The spec grammar is
	// sched.ParsePolicySpec's, e.g. "gate-aware;adaptive-batch:min=4,max=32".
	// Requires a JAWS scheduler; composes with QoSStretch.
	TailPolicy string
	// Obs enables scheduling-decision tracing and metrics for every run of
	// the system; nil (the default) keeps the engine uninstrumented.
	Obs *Obs
	// EngineID labels this system's decision flight records so a shared
	// trace splits back into per-node timelines; meaningful only when Obs
	// carries a flight recorder.
	EngineID int
	// Fault schedules deterministic fault injection (disk errors, latency
	// spikes, cache corruption, a node crash) for every run of the
	// system; the empty spec leaves the fast path untouched.
	Fault FaultSpec
	// FaultSeed seeds the injector when Fault is non-empty; runs with the
	// same (Fault, FaultSeed) replay identically.
	FaultSeed int64
}

// System is an assembled single-node JAWS instance.
type System struct {
	cfg      Config
	tailSpec sched.PolicySpec
	store    *store.Store
	cache    *cache.Cache
}

// Open validates the configuration and builds the store and cache.
func Open(cfg Config) (*System, error) {
	if cfg.Space.GridSide == 0 {
		cfg.Space = Space{GridSide: 256, AtomSide: 32}
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
	case PolicyLRU:
		pol = cache.NewLRU()
	case PolicyFIFO:
		pol = cache.NewFIFO()
	case PolicyTwoQ:
		pol = cache.NewTwoQ(cfg.CacheAtoms)
	default:
		return nil, fmt.Errorf("jaws: unknown cache policy %v", cfg.Policy)
	}
	return &System{cfg: cfg, tailSpec: tailSpec, store: st, cache: cache.New(cfg.CacheAtoms, pol)}, nil
}

// Store exposes the underlying atom store (examples use its Field for
// ground-truth checks).
func (s *System) Store() *store.Store { return s.store }

// CacheStats returns the cache counters accumulated so far.
func (s *System) CacheStats() cache.Stats { return s.cache.Stats() }

// newScheduler builds the configured scheduler against the system cache.
func (s *System) newScheduler() sched.Scheduler {
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
			Cost:         s.cfg.Cost,
			BatchSize:    s.cfg.BatchSize,
			InitialAlpha: s.cfg.InitialAlpha,
			Adaptive:     !s.cfg.AdaptiveOff,
			Resident:     resident,
		})
		// Both install hooks on inner itself (one selector, DESIGN.md §18).
		s.tailSpec.Wrap(inner)
		if s.cfg.QoSStretch > 0 {
			sched.NewQoS(inner, s.cfg.Cost, s.cfg.QoSStretch, s.cfg.QoSHorizon)
		}
		return inner
	}
}

// Run executes the jobs to completion on a fresh engine (the cache stays
// warm across calls) and returns the report.
func (s *System) Run(jobs []*Job) (*Report, error) {
	e, err := engine.New(engine.Config{
		Store:       s.store,
		Cache:       s.cache,
		Sched:       s.newScheduler(),
		Cost:        s.cfg.Cost,
		JobAware:    s.cfg.Scheduler == SchedJAWS2,
		RunLength:   s.cfg.RunLength,
		Compute:     s.cfg.Compute,
		KeepResults: s.cfg.KeepResults,
		Parallelism: s.cfg.Parallelism,
		// NoShare means no I/O sharing across queries (§VI): flush the
		// cache after each query, as the paper's baseline does.
		FlushPerDecision: s.cfg.Scheduler == SchedNoShare,
		Prefetch:         s.cfg.Prefetch,
		DeclareUpfront:   s.cfg.DeclareJobs,
		Obs:              s.cfg.Obs,
		EngineID:         s.cfg.EngineID,
		Fault:            fault.New(s.cfg.Fault, s.cfg.FaultSeed, 0),
	})
	if err != nil {
		return nil, err
	}
	return e.Run(jobs)
}

// Session is a long-lived interactive system: jobs are submitted while
// earlier ones execute and results stream out as queries complete — the
// serving model of the public Turbulence web services.
type Session = engine.Session

// QueryResult is one completed query streamed from a Session.
type QueryResult = engine.QueryResult

// OpenSession builds the system and starts an interactive session over
// it. Close the session to stop accepting jobs and obtain the final
// report.
func OpenSession(cfg Config) (*Session, error) {
	sys, err := Open(cfg)
	if err != nil {
		return nil, err
	}
	return engine.NewSession(engine.Config{
		Store:            sys.store,
		Cache:            sys.cache,
		Sched:            sys.newScheduler(),
		Cost:             sys.cfg.Cost,
		JobAware:         sys.cfg.Scheduler == SchedJAWS2,
		RunLength:        sys.cfg.RunLength,
		Compute:          sys.cfg.Compute,
		Parallelism:      sys.cfg.Parallelism,
		Prefetch:         sys.cfg.Prefetch,
		FlushPerDecision: sys.cfg.Scheduler == SchedNoShare,
		Obs:              sys.cfg.Obs,
		EngineID:         sys.cfg.EngineID,
		Fault:            fault.New(sys.cfg.Fault, sys.cfg.FaultSeed, 0),
	})
}

// GenerateWorkload builds a synthetic trace with the statistical shape of
// the Turbulence SQL log (§VI.A). A zero config yields the evaluation
// trace: ~1 k jobs against a 31-step store.
func GenerateWorkload(cfg WorkloadConfig) *Workload {
	return workload.Generate(cfg)
}

// IdentifyJobs groups raw trace records into inferred jobs using the
// §IV.A heuristics and returns the per-query assignment.
func IdentifyJobs(records []TraceRecord) map[QueryID]int64 {
	return job.Identify(records, job.DefaultIdentifyParams())
}

// JobIdentificationAccuracy scores an assignment against the ground truth
// carried in the records (pairwise agreement).
func JobIdentificationAccuracy(records []TraceRecord, assignment map[QueryID]int64) float64 {
	return job.Accuracy(records, assignment)
}

// ClusterConfig assembles a multi-node system (Fig. 7).
type ClusterConfig struct {
	// Nodes is the node count; atoms per step must divide evenly.
	Nodes int
	// Node is the per-node system configuration.
	Node Config
	// Observe gives every node a metrics registry and merges them into
	// ClusterReport.Metrics.
	Observe bool
	// Replicas is the data replication factor: a crashed node's jobs are
	// rerun on the next live replica ((node+k) mod Nodes). 0 or 1
	// disables failover.
	Replicas int
	// Fault/FaultSeed schedule deterministic fault injection on every
	// node; each node derives its own independent stream. Node.Fault is
	// ignored for cluster runs — use these instead.
	Fault     FaultSpec
	FaultSeed int64
}

// RunCluster partitions the jobs spatially across Nodes independent JAWS
// instances, executes them concurrently, and aggregates the reports.
func RunCluster(cfg ClusterConfig, jobs []*Job) (*ClusterReport, error) {
	node := cfg.Node
	if node.Space.GridSide == 0 {
		node.Space = Space{GridSide: 256, AtomSide: 32}
	}
	if node.Steps == 0 {
		node.Steps = 31
	}
	if node.CacheAtoms == 0 {
		node.CacheAtoms = 256
	}
	if node.BatchSize == 0 {
		node.BatchSize = 15
	}
	if !node.AlphaSet && node.InitialAlpha == 0 {
		node.InitialAlpha = 0.5
	}
	cl, err := cluster.New(cluster.Config{
		Nodes: cfg.Nodes,
		Store: store.Config{
			Space:      node.Space,
			Steps:      node.Steps,
			SampleSide: node.SampleSide,
			Seed:       node.Seed,
		},
		CacheAtoms: node.CacheAtoms,
		NewPolicy: func() cache.Policy {
			switch node.Policy {
			case PolicySLRU:
				return cache.NewSLRU(node.CacheAtoms, 0.05)
			case PolicyURC:
				return cache.NewURC()
			case PolicyLRU:
				return cache.NewLRU()
			case PolicyFIFO:
				return cache.NewFIFO()
			case PolicyTwoQ:
				return cache.NewTwoQ(node.CacheAtoms)
			default:
				return cache.NewLRUK(2, 0)
			}
		},
		NewSched: func(c *cache.Cache) sched.Scheduler {
			switch node.Scheduler {
			case SchedNoShare:
				return sched.NewNoShare()
			case SchedLifeRaft1:
				return sched.NewLifeRaft(node.Cost, 1, c.Contains)
			case SchedLifeRaft2:
				return sched.NewLifeRaft(node.Cost, 0, c.Contains)
			default:
				return sched.NewJAWS(sched.JAWSConfig{
					Cost:         node.Cost,
					BatchSize:    node.BatchSize,
					InitialAlpha: node.InitialAlpha,
					Adaptive:     !node.AdaptiveOff,
					Resident:     c.Contains,
				})
			}
		},
		Cost:      node.Cost,
		JobAware:  node.Scheduler == SchedJAWS2,
		RunLength: node.RunLength,
		Observe:   cfg.Observe,
		Replicas:  cfg.Replicas,
		FaultSpec: cfg.Fault,
		FaultSeed: cfg.FaultSeed,
	})
	if err != nil {
		return nil, err
	}
	return cl.Run(jobs)
}

// DefaultEvaluationCost returns the T_b/T_m pair used throughout the
// reproduction: a cold 8 MB atom read on the 4-disk array and 20 µs per
// position.
func DefaultEvaluationCost() CostModel {
	return CostModel{Tb: 41 * time.Millisecond, Tm: 20 * time.Microsecond}
}

// BoxQuery builds a cutout query sampling an axis-aligned box on a regular
// lattice of the given voxel stride, mirroring the Turbulence service's
// GetBox access pattern.
func BoxQuery(id QueryID, space Space, step int, lo, hi Position, stride int, k Kernel) (*Query, error) {
	return query.BoxQuery(id, space, step, lo, hi, stride, k)
}

// SphereQuery builds a probe-volume query sampling a ball around center.
func SphereQuery(id QueryID, space Space, step int, center Position, radius float64, stride int, k Kernel) (*Query, error) {
	return query.SphereQuery(id, space, step, center, radius, stride, k)
}
