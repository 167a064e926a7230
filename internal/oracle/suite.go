package oracle

import (
	"errors"
	"fmt"
	"time"

	"jaws/internal/fault"
	"jaws/internal/sched"
	"jaws/internal/workload"
)

// Suite profiles: parameter families a seed can run under.
const (
	// ProfileStandard is the original sustained-queueing configuration.
	ProfileStandard = "standard"
	// ProfileChurn is the high-churn configuration: tiny batches, adaptive
	// α, a tight cache, and short adaptation runs, so queue membership and
	// residency — and with them the memo epochs and freelist recycling of
	// the incremental scheduler structures — turn over at the maximum rate.
	ProfileChurn = "churn"
	// ProfileMatrix is the scenario-matrix configuration: the workload
	// mixes box cutouts and temporal-derivative chains over arrival
	// processes that vary by seed, so the differential suite certifies
	// every new query class and arrival shape against the reference
	// models, not just the calibrated point-query trace.
	ProfileMatrix = "matrix"
	// ProfileTail is the tail-policy configuration: JAWS decorated with a
	// per-seed tail-policy spec (gate-aware, cross-step, adaptive-batch,
	// and the full stack, cycling with the seed) on the scenario-matrix
	// workload under gated execution, so the policy decorators and their
	// reference models are certified on engine-captured logs — including
	// the live job-graph gate states the engine feeds the gate-aware
	// scoring.
	ProfileTail = "tail"
	// ProfileCompose is the tail configuration with QoS deadlines on top:
	// gate-aware scoring and adaptive batch sizing under a stretch tight
	// enough that earliest-deadline rounds interleave with two-level ones —
	// the composition the one-selector design made legal. It runs for
	// JAWS on the first ComposeSeeds seeds only.
	ProfileCompose = "compose"
)

// ComposeSeeds is how many seeds of a suite pass also run ProfileCompose.
const ComposeSeeds = 6

// SeedResult is the outcome of one differential run: one (algorithm,
// seed, profile, fault schedule) tuple captured on a real engine and
// replayed through the reference model.
type SeedResult struct {
	Algo      Algo
	Seed      int64
	Profile   string
	FaultSpec string
	// Policy is the tail-policy spec installed on the scheduler, with
	// "+QoS" appended under QoS deadlines (tail and compose profiles;
	// empty otherwise).
	Policy string
	// Ops and Decisions size the captured log.
	Ops, Decisions int
	// Crashed reports that the fault schedule killed the run (the log is
	// a prefix; differential and at-most-once checks still apply).
	Crashed bool
	// Divergence is the first model/production disagreement (nil: agree).
	Divergence *Divergence
	// Violations lists invariant breaches found in the capture.
	Violations []string
}

// Ok reports a clean result.
func (r *SeedResult) Ok() bool { return r.Divergence == nil && len(r.Violations) == 0 }

// String renders one report line.
func (r *SeedResult) String() string {
	status := "ok"
	if !r.Ok() {
		status = "FAIL"
	}
	f := r.FaultSpec
	if f == "" {
		f = "-"
	}
	p := r.Profile
	if p == "" {
		p = ProfileStandard
	}
	algo := r.Algo.String()
	if r.Policy != "" {
		algo += "+" + r.Policy
	}
	return fmt.Sprintf("%-8s seed=%-4d %-8s fault=%-40s ops=%-5d dec=%-4d %s", algo, r.Seed, p, f, r.Ops, r.Decisions, status)
}

// SuiteParams derives deterministic per-seed parameters: a tiny workload
// (64 atoms per step over a handful of steps) saturated enough that
// queues build real contention, with α and batch size varied across
// seeds so tie-breaking and truncation paths all get exercised.
func SuiteParams(a Algo, seed int64) (CaptureConfig, Params) {
	p := Params{
		Cost:      sched.DefaultCost(),
		BatchSize: 2 + int(seed%4),         // small k so the >k truncation path runs
		Alpha:     float64(seed%11) / 10.0, // sweep [0,1]
		Adaptive:  a == AlgoJAWS && seed%2 == 0,
	}
	cfg := CaptureConfig{
		Algo:   a,
		Params: p,
		Workload: workload.Config{
			Seed:           seed,
			Steps:          4,
			Jobs:           5 + int(seed%4),
			PointsPerQuery: 12,
			OrderedFrac:    0.7,
			SpeedUp:        200, // compress arrivals: sustained queueing
			MeanJobGap:     2 * time.Second,
			ThinkTime:      20 * time.Millisecond,
			QueryScale:     25,
			Hotspots:       3,
		},
		CacheAtoms: 24,
		RunLength:  6,
		JobAware:   a == AlgoJAWS, // full JAWS runs gated
	}
	return cfg, p
}

// ChurnParams derives the high-churn variant of SuiteParams: batch size
// forced to 1 or 2, adaptive α on for every JAWS seed, double the arrival
// compression, half the cache, and 3-query adaptation runs. Decisions
// come thick and small, residency turns over constantly, and the α
// controller fires often — the regime that stresses the incremental
// utility structures (epoch invalidation, freelists) hardest.
func ChurnParams(a Algo, seed int64) (CaptureConfig, Params) {
	cfg, p := SuiteParams(a, seed)
	p.BatchSize = 1 + int(seed%2)
	p.Adaptive = a == AlgoJAWS
	cfg.Params = p
	cfg.Workload.Steps = 6
	cfg.Workload.SpeedUp = 400
	cfg.CacheAtoms = 12
	cfg.RunLength = 3
	return cfg, p
}

// MatrixParams derives the scenario-matrix variant of SuiteParams: 20%
// box cutouts on a coarse stride, 30% temporal-derivative queries
// chaining 3 of 6 steps, and an arrival process cycling Poisson /
// diurnal / calibrated on-off with the seed. Derivative chains widen
// each query's atom set across adjacent steps — the regime where gating
// edges, partner sets, and step-bucketed queues all get new shapes — so
// replaying these captures pins the reference and production schedulers
// to agreement on exactly the paths the scenario matrix added.
func MatrixParams(a Algo, seed int64) (CaptureConfig, Params) {
	cfg, p := SuiteParams(a, seed)
	cfg.Workload.Steps = 6
	cfg.Workload.BoxFrac = 0.2
	cfg.Workload.BoxStride = 8 // coarse lattice: a cutout stays a handful of positions
	cfg.Workload.DerivFrac = 0.3
	cfg.Workload.DerivChain = 3
	switch seed % 3 {
	case 0:
		cfg.Workload.Arrivals = workload.Poisson{}
	case 1:
		cfg.Workload.Arrivals = workload.NewDiurnal(workload.Poisson{}, 10*time.Second, 0.7)
	default:
		// Keep the calibrated on-off default: the matrix must also cover
		// the new classes under the original arrival process.
	}
	return cfg, p
}

// TailPolicySpec returns the tail-policy spec the tail profile pairs
// with a seed: the three policies singly, then the full stack, cycling.
// The adaptive-batch bounds are tight so engine-length runs drive k into
// both rails.
func TailPolicySpec(seed int64) string {
	switch seed % 4 {
	case 0:
		return "gate-aware"
	case 1:
		return "cross-step:span=3"
	case 2:
		return "adaptive-batch:min=2,max=6,grow=2,shrink=1,full=1,idle=2"
	}
	return "gate-aware:discount=0.5,boost=3;cross-step:span=2;adaptive-batch:min=2,max=5,grow=1,shrink=1,full=1,idle=3"
}

// TailParams derives the tail-policy variant: the scenario-matrix
// workload (derivative chains are what cross-step exists for) with the
// per-seed policy spec installed on JAWS.
func TailParams(a Algo, seed int64) (CaptureConfig, Params) {
	return policyParams(a, seed, TailPolicySpec(seed))
}

// ComposeParams derives the QoS × tail-policy variant of TailParams.
func ComposeParams(a Algo, seed int64) (CaptureConfig, Params) {
	cfg, p := policyParams(a, seed, "gate-aware;adaptive-batch:min=2,max=6,grow=1,shrink=1,full=1,idle=2")
	p.QoSStretch = float64(12 + 4*(seed%3))
	p.QoSHorizon = 500 * time.Millisecond
	cfg.Params = p
	return cfg, p
}

// policyParams is MatrixParams with a tail-policy spec installed (one of
// this file's constants, so a parse error is a programming error).
func policyParams(a Algo, seed int64, spec string) (CaptureConfig, Params) {
	cfg, p := MatrixParams(a, seed)
	var err error
	if p.Policy, err = sched.ParsePolicySpec(spec); err != nil {
		panic(err)
	}
	cfg.Params = p
	return cfg, p
}

// ProfileParams returns the capture config and parameters of a profile.
func ProfileParams(profile string, a Algo, seed int64) (CaptureConfig, Params) {
	switch profile {
	case ProfileChurn:
		return ChurnParams(a, seed)
	case ProfileMatrix:
		return MatrixParams(a, seed)
	case ProfileTail:
		return TailParams(a, seed)
	case ProfileCompose:
		return ComposeParams(a, seed)
	}
	return SuiteParams(a, seed)
}

// SuiteFaultSpec is the deterministic fault schedule paired with each
// seed in the with-faults pass: transient disk errors and cache
// corruption throughout, plus a node crash partway through the run.
func SuiteFaultSpec(seed int64) string {
	crashAt := 2 + seed%3
	return fmt.Sprintf("disk-transient:p=0.05;corrupt:p=0.05;crash@0:at=%ds", crashAt)
}

// DiffSeedProfile captures one run under the named profile and checks
// it: differential replay plus the invariant suite. A non-nil error means
// the harness itself failed (bad config), not that the run diverged.
func DiffSeedProfile(profile string, a Algo, seed int64, faultSpec string) (*SeedResult, error) {
	cfg, _ := ProfileParams(profile, a, seed)
	cfg.FaultSpec = faultSpec
	cfg.FaultSeed = seed
	c, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	res := &SeedResult{
		Algo:      a,
		Seed:      seed,
		Profile:   profile,
		FaultSpec: faultSpec,
		Policy:    cfg.Params.Policy.String(),
		Ops:       len(c.Log.Ops),
		Decisions: len(c.Decisions),
		Crashed:   c.RunErr != nil,
	}
	if cfg.Params.QoSStretch > 0 {
		res.Policy += "+QoS"
	}
	res.Divergence = Diff(StandardTarget(a, cfg.Params), c.Log)
	res.Violations = append(res.Violations, CheckExactlyOnce(c, c.RunErr == nil)...)
	if cfg.JobAware {
		res.Violations = append(res.Violations, CheckGateRelease(c)...)
	}
	res.Violations = append(res.Violations, CheckSpanConservation(c.Spans)...)
	var crash *fault.NodeCrashError
	if c.RunErr == nil || errors.As(c.RunErr, &crash) {
		// A crash kills the node between decisions, so cache accounting is
		// still balanced; only a mid-read abort (exhausted retries or a
		// permanent fault) legitimately leaves a miss without its insert.
		res.Violations = append(res.Violations, CheckCacheBalance(c.CacheStats, c.CacheLen)...)
	}
	return res, nil
}

// Suite runs the differential suite over seeds 1..n for every algorithm,
// without and with the per-seed fault schedule. Every
// algorithm runs each seed under the scenario-matrix profile (box and
// derivative query classes, varied arrivals), and the contention-based
// algorithms (LifeRaft, JAWS) additionally run the high-churn profile,
// so one suite pass covers the sustained-queueing, maximum-turnover, and
// scenario-matrix regimes: 3n standard + 2n churn + 3n matrix captures
// per fault arm, plus n tail-policy and min(n, ComposeSeeds) QoS ×
// tail-policy captures of JAWS.
func Suite(n int) ([]*SeedResult, error) {
	var out []*SeedResult
	for _, a := range []Algo{AlgoNoShare, AlgoLifeRaft, AlgoJAWS} {
		for seed := int64(1); seed <= int64(n); seed++ {
			for _, spec := range []string{"", SuiteFaultSpec(seed)} {
				for _, profile := range suiteProfiles(a, seed) {
					r, err := DiffSeedProfile(profile, a, seed, spec)
					if err != nil {
						return out, fmt.Errorf("oracle: %v seed %d %s fault %q: %w", a, seed, profile, spec, err)
					}
					out = append(out, r)
				}
			}
		}
	}
	return out, nil
}

// suiteProfiles lists the profiles one (algorithm, seed) runs under.
func suiteProfiles(a Algo, seed int64) []string {
	profiles := []string{ProfileStandard}
	if a != AlgoNoShare {
		profiles = append(profiles, ProfileChurn)
	}
	profiles = append(profiles, ProfileMatrix)
	if a == AlgoJAWS {
		profiles = append(profiles, ProfileTail)
		if seed <= ComposeSeeds {
			profiles = append(profiles, ProfileCompose)
		}
	}
	return profiles
}
