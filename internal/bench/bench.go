// Package bench produces versioned, machine-readable benchmark artifacts
// (BENCH_<name>.json) from the evaluation harness: each artifact captures
// throughput, response-time percentiles, per-phase attribution, and the
// exact configuration that produced them.
//
// Determinism contract: for a fixed (workload, seed, config) the artifact
// bytes are identical across runs and machines. Everything in the artifact
// derives from the virtual clock and integer arithmetic — no wall-clock
// timestamps, no map iteration, no float accumulation whose order varies.
// The committed artifacts are therefore checked by byte identity alone:
// internal/obs's TestChainMatchesReferenceOnArtifacts runs the
// configuration each file's config record names once, distills that run
// (Distill) and compares it with the file, and checks the run's why-chains
// on the same records.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"jaws/internal/engine"
	"jaws/internal/experiments"
	"jaws/internal/obs"
	"jaws/internal/system"
)

// ArtifactVersion is the BENCH_*.json schema version. Bump it on any
// incompatible change to Artifact's shape; Load rejects other versions so
// a reader of an older or newer file fails loudly instead of silently
// misreading it. Version 2 added the per-cause wait tail (wait_causes).
// Version 3 added the workload scenario to the config record (the baseline
// "" trace is recorded as "fig8").
const ArtifactVersion = 3

// ConfigRecord pins the simulation parameters that produced an artifact.
type ConfigRecord struct {
	GridSide       int    `json:"grid_side"`
	AtomSide       int    `json:"atom_side"`
	Steps          int    `json:"steps"`
	Seed           int64  `json:"seed"`
	Jobs           int    `json:"jobs"`
	PointsPerQuery int    `json:"points_per_query"`
	QueryScale     int    `json:"query_scale"`
	CacheAtoms     int    `json:"cache_atoms"`
	BatchSize      int    `json:"batch_size"`
	RunLength      int    `json:"run_length"`
	TbMillis       int64  `json:"tb_ms"`
	TmMicros       int64  `json:"tm_us"`
	Algorithm      string `json:"algorithm"`
	// Scenario is the workload scenario name (see internal/workload's
	// registry); the pre-matrix baseline trace is recorded as "fig8".
	Scenario string `json:"scenario"`
	// Policy is the tail-policy spec decorating the scheduler (see
	// sched.ParsePolicySpec); empty for the undecorated baseline, and
	// omitted from the encoding so pre-policy artifacts keep their bytes.
	Policy string `json:"policy,omitempty"`
}

// PhaseMeans is the per-query mean of each attribution phase, in
// milliseconds of virtual time (see obs.Span for phase semantics).
type PhaseMeans struct {
	GatedMS    float64 `json:"gated_ms"`
	QueuedMS   float64 `json:"queued_ms"`
	OverheadMS float64 `json:"overhead_ms"`
	DiskMS     float64 `json:"disk_ms"`
	ComputeMS  float64 `json:"compute_ms"`
}

// Artifact is one benchmark measurement: the content of a BENCH_*.json
// file. Field order here is the byte order in the file (encoding/json
// emits struct fields in declaration order).
type Artifact struct {
	Version int          `json:"version"`
	Name    string       `json:"name"`
	Config  ConfigRecord `json:"config"`

	Completed     int     `json:"completed"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	ThroughputQPS float64 `json:"throughput_qps"`

	MeanResponseMS float64 `json:"mean_response_ms"`
	P50ResponseMS  float64 `json:"p50_response_ms"`
	P90ResponseMS  float64 `json:"p90_response_ms"`
	P95ResponseMS  float64 `json:"p95_response_ms"`
	P99ResponseMS  float64 `json:"p99_response_ms"`
	MaxResponseMS  float64 `json:"max_response_ms"`

	Phases PhaseMeans `json:"phase_means"`

	CacheHitRate float64 `json:"cache_hit_rate"`
	DiskReads    int64   `json:"disk_reads"`
	DiskSeqReads int64   `json:"disk_seq_reads"`
	DiskBytes    int64   `json:"disk_bytes"`

	GateBlocked int `json:"gate_blocked"`

	// WaitCauses is the per-cause wait-time tail across all completed
	// queries, in obs.AllWaitCauses order: how much of the waiting the
	// gating graph caused versus lost utility races, the batch bound, and
	// the age bias (see obs.CauseBreakdown). Tracking the p99 of each
	// cause PR over PR shows *which* scheduling mechanism a regression
	// came from, not just that the tail moved.
	WaitCauses []obs.CauseTail `json:"wait_causes"`
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func record(s experiments.Scale, alg system.Scheduler) ConfigRecord {
	scenario := s.Scenario
	if scenario == "" {
		scenario = "fig8"
	}
	return ConfigRecord{
		GridSide:       s.Space.GridSide,
		AtomSide:       s.Space.AtomSide,
		Steps:          s.Steps,
		Seed:           s.Seed,
		Jobs:           s.Jobs,
		PointsPerQuery: s.PointsPerQuery,
		QueryScale:     s.QueryScale,
		CacheAtoms:     s.CacheAtoms,
		BatchSize:      s.BatchSize,
		RunLength:      s.RunLength,
		TbMillis:       s.Cost.Tb.Milliseconds(),
		TmMicros:       s.Cost.Tm.Microseconds(),
		Algorithm:      alg.String(),
		Scenario:       scenario,
		Policy:         s.TailPolicy,
	}
}

// Run executes the JAWS2 benchmark workload at the given scale with span
// collection and the decision flight recorder enabled, and distills the
// report into an artifact. The scale's Obs is replaced for the run (a
// fresh span aggregator and a recorder that retains every record —
// attribution must not lose rounds — no tracer, no registry) so the
// measurement is self-contained and repeatable.
func Run(s experiments.Scale, name string) (*Artifact, error) {
	agg := obs.NewSpanAgg()
	rec := obs.NewFlightRecorder(true, nil, nil)
	s.Obs = &obs.Obs{Spans: agg, Flight: rec}
	rep, err := experiments.RunAlgorithm(s, system.SchedJAWS2, s.BatchSize)
	if err != nil {
		return nil, err
	}
	return Distill(s, name, rep, agg.Spans(), rec.Records()), nil
}

// Distill is the artifact named name of a JAWS2 run at scale s: its
// report, the spans its aggregator collected and every decision record
// its flight recorder kept. Run ends with it; a caller that runs the
// workload itself, as Run does, can check other things on the same run.
func Distill(s experiments.Scale, name string, rep *engine.Report, spans []obs.Span, recs []obs.DecisionRecord) *Artifact {
	sum := obs.SummarizeSpans(spans, 0)
	a := &Artifact{
		Version: ArtifactVersion,
		Name:    name,
		Config:  record(s, system.SchedJAWS2),

		Completed:     rep.Completed,
		ElapsedSec:    rep.Elapsed.Seconds(),
		ThroughputQPS: rep.ThroughputQPS,

		MeanResponseMS: ms(sum.Mean),
		P50ResponseMS:  ms(sum.P50),
		P90ResponseMS:  ms(sum.P90),
		P95ResponseMS:  ms(sum.P95),
		P99ResponseMS:  ms(sum.P99),
		MaxResponseMS:  ms(sum.Max),

		CacheHitRate: rep.CacheStats.HitRatio(),
		DiskReads:    rep.DiskStats.Reads,
		DiskSeqReads: rep.DiskStats.SeqReads,
		DiskBytes:    rep.DiskStats.Bytes,

		GateBlocked: sum.Blocked,
	}
	if sum.Count > 0 {
		n := time.Duration(sum.Count)
		a.Phases = PhaseMeans{
			GatedMS:    ms(sum.Phases.Gated / n),
			QueuedMS:   ms(sum.Phases.Queued / n),
			OverheadMS: ms(sum.Phases.Overhead / n),
			DiskMS:     ms(sum.Phases.Disk / n),
			ComputeMS:  ms(sum.Phases.Compute / n),
		}
	}
	a.WaitCauses = obs.CauseBreakdown(spans, obs.NewDecisionIndex(recs))
	return a
}

// Encode renders the artifact's canonical byte form: two-space indented
// JSON in struct declaration order plus a trailing newline. Identical
// inputs yield identical bytes.
func (a *Artifact) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the canonical encoding to path.
func (a *Artifact) WriteFile(path string) error {
	b, err := a.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Load reads an artifact, rejecting unknown schema versions.
func Load(path string) (*Artifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a, err := parse(b)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return a, nil
}

// parse decodes an artifact's bytes, rejecting unknown schema versions.
func parse(b []byte) (*Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, err
	}
	if a.Version != ArtifactVersion {
		return nil, fmt.Errorf("schema version %d, this build reads version %d", a.Version, ArtifactVersion)
	}
	return &a, nil
}
