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
// paper-versus-measured record and what each mechanism costs.
package jaws

import (
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
	"jaws/internal/system"
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
	// ClusterReport aggregates a multi-node run.
	ClusterReport = cluster.Report
	// Obs bundles a tracer and a metrics registry for a run; see the
	// internal/obs package docs for the zero-overhead contract.
	Obs = obs.Obs
	// Tracer streams virtual-clock-stamped scheduling/cache/disk/gating
	// events to a JSONL sink.
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

// NewTracer creates a tracer that writes every event to sink as JSONL
// (read it back with jawsreport); it keeps no events in memory.
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

// The single-node system and its description live in internal/system, the
// one assembler every caller in this module builds through.
type (
	// Config describes a single-node JAWS system; its zero fields default
	// to the paper's evaluation setup at simulation scale.
	Config = system.Config
	// System is an assembled single-node JAWS instance: Run executes jobs
	// on a fresh engine over its store and warm cache.
	System = system.System
	// Scheduler selects the scheduling algorithm for a System.
	Scheduler = system.Scheduler
	// CachePolicy selects the replacement algorithm (Table I).
	CachePolicy = system.CachePolicy
	// Session is a long-lived interactive system: jobs are submitted while
	// earlier ones execute and results stream out as queries complete — the
	// serving model of the public Turbulence web services.
	Session = engine.Session
	// QueryResult is one completed query streamed from a Session.
	QueryResult = engine.QueryResult
)

// Schedulers: the NoShare and LifeRaft (α = 1, α = 0) baselines, JAWS
// without job-awareness, and full JAWS.
const (
	SchedNoShare   = system.SchedNoShare
	SchedLifeRaft1 = system.SchedLifeRaft1
	SchedLifeRaft2 = system.SchedLifeRaft2
	SchedJAWS1     = system.SchedJAWS1
	SchedJAWS2     = system.SchedJAWS2
)

// Cache policies: the LRU-K baseline, SLRU and URC, the three rows of
// Table I.
const (
	PolicyLRUK = system.PolicyLRUK
	PolicySLRU = system.PolicySLRU
	PolicyURC  = system.PolicyURC
)

// ParseScheduler and ParseCachePolicy invert the enums' String methods
// (ignoring case; "lruk" and "lru-k" both name LRU-K); the *Names list what
// they accept. Both enums are flag.TextVar values.
var (
	ParseScheduler   = system.ParseScheduler
	ParseCachePolicy = system.ParseCachePolicy
	SchedulerNames   = system.SchedulerNames
	CachePolicyNames = system.CachePolicyNames
)

// Open validates the configuration and builds the store and cache.
func Open(cfg Config) (*System, error) { return system.Open(cfg) }

// OpenSession builds the system and starts an interactive session over
// it. Close the session to stop accepting jobs and obtain the final
// report.
func OpenSession(cfg Config) (*Session, error) {
	sys, err := system.Open(cfg)
	if err != nil {
		return nil, err
	}
	return sys.Session()
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

// ClusterConfig assembles a multi-node system (Fig. 7): Nodes instances of
// the Node description behind a spatial partitioner, with optional
// replication and per-node fault injection (see the fields).
type ClusterConfig = cluster.Config

// RunCluster partitions the jobs spatially across Nodes independent JAWS
// instances, executes them concurrently, and aggregates the reports.
func RunCluster(cfg ClusterConfig, jobs []*Job) (*ClusterReport, error) {
	cl, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	return cl.Run(jobs)
}

// DefaultEvaluationCost returns the T_b/T_m pair used throughout the
// reproduction: 41 ms per atom read (the disk model's cold read of one
// nominal 8 MB atom on the 4-disk array is 42.62 ms) and 20 µs per position.
func DefaultEvaluationCost() CostModel { return sched.DefaultCost() }

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
