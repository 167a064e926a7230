// Package workload synthesizes query traces with the statistical shape of
// the Turbulence cluster's two-year SQL log (§VI.A), since the production
// log is not public (see the substitution table in DESIGN.md):
//
//   - over 95 % of queries belong to jobs;
//   - job durations follow Fig. 8: a majority (≈63 %) of jobs run 1–30
//     minutes, with short and multi-hour tails;
//   - 88 % of jobs access a single time step while ≈3 % iterate over a
//     large share of the stored time range;
//   - per-step access frequency follows Fig. 9: ≈70 % of queries reuse a
//     dozen steps clustered at the start and end of simulation time, a
//     secondary spike sits at 0.25–0.4 s, and overall frequency trends
//     downward (jobs that iterate over all time often terminate midway);
//   - arrivals are bursty, with a speed-up knob that divides inter-job
//     gaps to vary workload saturation (Fig. 11).
package workload

import (
	"math"
	"math/rand"
	"time"

	"jaws/internal/field"
	"jaws/internal/geom"
	"jaws/internal/job"
	"jaws/internal/query"
)

// BoxSide is the cutout edge length (box) or diameter (sphere) in domain
// units, for the generator's cutouts and jawsload's box lattices alike.
const BoxSide = 0.6

// Config parameterizes the generator.
type Config struct {
	Seed  int64
	Space geom.Space
	// Steps is the number of time steps in the target store (31 in the
	// paper's 800 GB evaluation sample).
	Steps int
	// Jobs is the number of jobs to generate (the evaluation trace has
	// roughly 1 k jobs for 50 k queries).
	Jobs int
	// PointsPerQuery is the mean number of positions per query.
	PointsPerQuery int
	// OrderedFrac is the fraction of multi-query jobs that are ordered
	// (data-dependent sequences such as particle tracking).
	OrderedFrac float64
	// LoneQueryFrac is the fraction of queries outside any job (<5 % in
	// the paper); they are emitted as single-query batched jobs.
	LoneQueryFrac float64
	// SpeedUp divides inter-job arrival gaps (Fig. 11's saturation knob).
	SpeedUp float64
	// MeanJobGap is the mean inter-job arrival gap at SpeedUp = 1.
	MeanJobGap time.Duration
	// ThinkTime is the pause between an ordered query's completion and
	// its successor's submission.
	ThinkTime time.Duration
	// QueryScale divides per-job query counts so simulation traces stay
	// tractable while keeping the duration mix; 1 = paper scale.
	QueryScale int
	// Hotspots is the number of spatial regions of interest that jobs
	// cluster around (inertial particles cluster in turbulent
	// structures, §V.B); 0 defaults to 6.
	Hotspots int

	// Arrivals selects the inter-job arrival process. Nil means the
	// calibrated Fig8() bursty on/off process — the original trace,
	// byte-identical to the pre-matrix generator (pinned by goldens).
	Arrivals Arrivals

	// BoxFrac is the fraction of queries generated as cutout queries —
	// box or sphere lattices spanning many atoms (the web services'
	// cutout access pattern) — instead of clustered point clouds. Zero
	// (the fig8 trace) draws no extra randomness, keeping old traces
	// byte-identical.
	BoxFrac float64
	// BoxStride is the cutout lattice stride in voxels; 0 defaults to 6.
	BoxStride int

	// DerivFrac is the fraction of queries generated as temporal-
	// derivative queries: each chains DerivChain adjacent time steps per
	// logical query (∂/∂t via finite differences), stressing the gating
	// graph and the scheduler's step buckets.
	DerivFrac float64
	// DerivChain is k, the adjacent steps per derivative query; 0
	// defaults to 3, and it is capped at Steps.
	DerivChain int
}

// Workload is a generated trace: runnable jobs plus the raw log records
// (with ground-truth job labels) for the job-identification experiment.
type Workload struct {
	Jobs    []*job.Job
	Records []job.TraceRecord
	// StepAccess counts queries per time step (the Fig. 9 series).
	StepAccess []int
	// Durations estimates each job's execution time span for Fig. 8.
	Durations []time.Duration
}

// TotalQueries returns the number of queries across all jobs.
func (w *Workload) TotalQueries() int {
	n := 0
	for _, j := range w.Jobs {
		n += len(j.Queries)
	}
	return n
}

// Generate builds a workload. It is deterministic in Config.
func Generate(cfg Config) *Workload {
	if cfg.Steps <= 0 {
		cfg.Steps = 31
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 1000
	}
	if cfg.PointsPerQuery <= 0 {
		cfg.PointsPerQuery = 60
	}
	if cfg.SpeedUp <= 0 {
		cfg.SpeedUp = 1
	}
	if cfg.MeanJobGap <= 0 {
		cfg.MeanJobGap = 4 * time.Second
	}
	if cfg.QueryScale <= 0 {
		cfg.QueryScale = 10
	}
	if cfg.Hotspots <= 0 {
		cfg.Hotspots = 6
	}
	if cfg.Space.GridSide == 0 {
		cfg.Space = geom.Space{GridSide: 256, AtomSide: 32}
	}
	if cfg.OrderedFrac == 0 {
		cfg.OrderedFrac = 0.7 // pass a negative value to disable ordered jobs
	}
	if cfg.OrderedFrac < 0 {
		cfg.OrderedFrac = 0
	}
	if cfg.LoneQueryFrac == 0 {
		cfg.LoneQueryFrac = 0.05 // negative disables lone queries
	}
	if cfg.LoneQueryFrac < 0 {
		cfg.LoneQueryFrac = 0
	}
	if cfg.ThinkTime <= 0 {
		cfg.ThinkTime = 50 * time.Millisecond
	}
	if cfg.Arrivals == nil {
		cfg.Arrivals = Fig8()
	}
	if cfg.BoxStride <= 0 {
		cfg.BoxStride = 6
	}
	if cfg.DerivChain <= 0 {
		cfg.DerivChain = 3
	}
	if cfg.DerivChain > cfg.Steps {
		cfg.DerivChain = cfg.Steps
	}
	if cfg.BoxFrac < 0 {
		cfg.BoxFrac = 0
	}
	if cfg.DerivFrac < 0 {
		cfg.DerivFrac = 0
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &generator{cfg: cfg, rng: rng}
	g.stepWeights = buildStepWeights(cfg.Steps)
	g.hotspots = make([]geom.Position, cfg.Hotspots)
	g.hotPaths = make([][]geom.Position, cfg.Hotspots)
	for i := range g.hotspots {
		g.hotspots[i] = geom.Position{
			X: rng.Float64() * geom.DomainSide,
			Y: rng.Float64() * geom.DomainSide,
			Z: rng.Float64() * geom.DomainSide,
		}
		// Each hotspot carries a canonical drift path: the trajectory of
		// the turbulent structure scientists are following. Jobs that
		// track the same structure submit queries along the same region
		// sequence — the cross-job repetition that gated execution aligns
		// (Fig. 2's jobs all touching R3 then R4).
		path := make([]geom.Position, maxPathLen)
		p := g.hotspots[i]
		for s := range path {
			path[s] = p
			p = g.jitter(p, 0.08)
		}
		g.hotPaths[i] = path
	}

	g.hotSteps = make([]int, cfg.Hotspots)
	for i := range g.hotSteps {
		g.hotSteps[i] = g.sampleStep()
	}
	g.userBusy = make([]time.Duration, 37)

	w := &Workload{StepAccess: make([]int, cfg.Steps)}
	now := time.Duration(0)
	gaps := cfg.Arrivals.Stream()
	for i := 0; i < cfg.Jobs; i++ {
		gap := gaps(rng, cfg.MeanJobGap, now)
		now += time.Duration(float64(gap) / cfg.SpeedUp)
		j, dur := g.makeJob(int64(i+1), now)
		w.Jobs = append(w.Jobs, j)
		for _, q := range j.Queries {
			for s := 0; s < q.ChainLen(); s++ {
				w.StepAccess[q.Step+s]++
			}
		}
		w.Durations = append(w.Durations, dur)
		w.Records = append(w.Records, g.traceRecords(j, now)...)
	}
	return w
}

// maxPathLen bounds the canonical hotspot trajectories; jobs longer than
// this keep following the final position.
const maxPathLen = 1024

type generator struct {
	cfg         Config
	rng         *rand.Rand
	stepWeights []float64
	hotspots    []geom.Position
	hotPaths    [][]geom.Position
	hotSteps    []int
	nextQuery   query.ID
	userBusy    []time.Duration // per-user: time their current job ends
}

// buildStepWeights reproduces the Fig. 9 access-frequency shape over the
// stored step range: heavy clusters at the first and last steps, a spike
// around 25–40 % of simulation time, and a downward linear trend.
func buildStepWeights(steps int) []float64 {
	w := make([]float64, steps)
	for s := 0; s < steps; s++ {
		f := float64(s) / (float64(steps-1) + 1e-9)
		// Downward-trending baseline.
		base := 1.0 - float64(0.5*f)
		// Start and end clusters (≈ a dozen steps carry 70 % of queries at
		// paper scale: exponential decay from each boundary).
		cluster := float64(14*math.Exp(-float64(s)/2.0)) + float64(8*math.Exp(-float64(steps-1-s)/2.0))
		// Secondary spike at 25–40 % of simulation time.
		spike := 0.0
		if f >= 0.25 && f <= 0.40 {
			spike = 4
		}
		w[s] = base + cluster + spike
	}
	return w
}

// sampleStep draws a time step from the Fig. 9 distribution.
func (g *generator) sampleStep() int {
	total := 0.0
	for _, w := range g.stepWeights {
		total += w
	}
	r := g.rng.Float64() * total
	for s, w := range g.stepWeights {
		r -= w
		if r <= 0 {
			return s
		}
	}
	return len(g.stepWeights) - 1
}

// jobQueryCount draws a per-job duration from the Fig. 8 mix and converts
// it to a query count, assuming ≈2 queries per minute of job wall time and
// dividing by QueryScale. The drawn duration is returned unrounded so the
// Fig. 8 histogram reflects the mix exactly.
func (g *generator) jobQueryCount() (int, time.Duration) {
	r := g.rng.Float64()
	var minutes float64
	switch {
	case r < 0.18: // short jobs, under a minute
		minutes = 0.3 + float64(g.rng.Float64()*0.65)
	case r < 0.81: // the 63 % majority: 1–30 minutes
		minutes = 1 + float64(g.rng.Float64()*28.5)
	case r < 0.95: // 30 minutes – 2 hours
		minutes = 31 + float64(g.rng.Float64()*89)
	default: // multi-hour tail
		minutes = 121 + float64(g.rng.Float64()*360)
	}
	n := int(minutes*2) / g.cfg.QueryScale // 2 queries per minute
	if n < 2 {
		n = 2 // a job, by definition, sequences multiple queries
	}
	return n, time.Duration(minutes * float64(time.Minute))
}

// pickUser assigns the job to a scientist who is not mid-experiment at
// the arrival time — people iterate one experiment at a time, which is
// also the property the job-identification heuristics of §IV.A rely on.
// If everyone is busy, the least-busy user takes it.
func (g *generator) pickUser(arrival time.Duration) int {
	best := 0
	for u := range g.userBusy {
		if g.userBusy[u] <= arrival {
			return u + 1
		}
		if g.userBusy[u] < g.userBusy[best] {
			best = u
		}
	}
	return best + 1
}

// noteUserBusy records when the user's new job will finish submitting.
func (g *generator) noteUserBusy(user int, until time.Duration) {
	if until > g.userBusy[user-1] {
		g.userBusy[user-1] = until
	}
}

// makeJob generates one job arriving at the given time, returning it with
// its drawn wall-clock duration (for the Fig. 8 histogram).
func (g *generator) makeJob(id int64, arrival time.Duration) (*job.Job, time.Duration) {
	user := g.pickUser(arrival)

	if g.rng.Float64() < g.cfg.LoneQueryFrac {
		j := &job.Job{ID: id, User: user, Type: job.Batched}
		q := g.makeQuery(id, 0, g.sampleStep(), g.pickCenter(), arrival)
		j.Queries = []*query.Query{q}
		g.noteUserBusy(user, arrival+g.submitSpacing())
		return j, 30 * time.Second
	}

	n, dur := g.jobQueryCount()
	typ := job.Batched
	if n > 1 && g.rng.Float64() < g.cfg.OrderedFrac {
		typ = job.Ordered
	}
	j := &job.Job{ID: id, User: user, Type: typ, ThinkTime: g.cfg.ThinkTime}

	// Spatial trajectory: most jobs follow one of the canonical hotspot
	// paths (tracking the same turbulent structure as other experiments,
	// offset by a few queries and by a small per-job shift), which is the
	// cross-job repetition JAWS's gated execution aligns. The rest wander
	// independently.
	var path []geom.Position
	var off int
	var shift geom.Position
	hotspot := -1
	walker := g.pickCenter()
	if g.rng.Float64() < 0.8 {
		hotspot = g.rng.Intn(len(g.hotPaths))
		path = g.hotPaths[hotspot]
		off = g.rng.Intn(4)
		shift = geom.Position{
			X: g.rng.NormFloat64() * 0.05,
			Y: g.rng.NormFloat64() * 0.05,
			Z: g.rng.NormFloat64() * 0.05,
		}
	}

	// Time-step pattern. Ordered jobs are particle-tracking style: each
	// query advances to the next time step (the position of particles at
	// step s+1 depends on the result at step s, §IV). Batched jobs mostly
	// evaluate statistics within a single step. A hotspot's structure
	// exists over a particular time range, so jobs tracking it start at
	// nearby steps — the offset starts are exactly what gated execution
	// aligns (Fig. 2), and what a cache cannot bridge because every step's
	// atoms are distinct.
	start := g.sampleStep()
	if hotspot >= 0 {
		start = (g.hotSteps[hotspot] + g.rng.Intn(3)) % g.cfg.Steps
	}
	if typ == job.Ordered && g.rng.Float64() < 0.03 && n < g.cfg.Steps {
		// Long experiment: iterate the whole stored time range (≈3 % of
		// jobs in §VI.A iterate over 100+ steps).
		n = g.cfg.Steps
	}
	steps := make([]int, n)
	for i := range steps {
		if typ == job.Ordered {
			// Two queries per time step: scientists typically fetch a
			// second quantity (e.g. pressure after velocity) before
			// advancing the tracked particles.
			steps[i] = (start + i/2) % g.cfg.Steps
		} else {
			steps[i] = start
		}
	}
	centerAt := func(i int) geom.Position {
		if path == nil {
			c := walker
			walker = g.drift(walker)
			return c
		}
		idx := off + i
		if idx >= len(path) {
			idx = len(path) - 1
		}
		p := path[idx]
		return geom.Wrap(geom.Position{X: p.X + shift.X, Y: p.Y + shift.Y, Z: p.Z + shift.Z})
	}

	for i := 0; i < n; i++ {
		q := g.makeQuery(id, i, steps[i], centerAt(i), arrival)
		if typ == job.Batched {
			// Batched queries arrive independently, spread after the job
			// start (they do not depend on each other).
			q.Arrival = arrival + time.Duration(i)*g.cfg.ThinkTime
		} else if i > 0 {
			q.Arrival = 0 // assigned at run time by the engine
		}
		j.Queries = append(j.Queries, q)
	}
	g.noteUserBusy(user, arrival+time.Duration(n)*g.submitSpacing())
	return j, dur
}

// submitSpacing is the nominal wall-clock spacing between a job's
// consecutive query submissions (think time plus typical execution), used
// both for the trace log and for the user-serialization model.
func (g *generator) submitSpacing() time.Duration {
	return g.cfg.ThinkTime + 500*time.Millisecond
}

// pickCenter selects a spatial region: mostly one of the shared hotspots
// (cross-job data sharing), sometimes a uniform random region.
func (g *generator) pickCenter() geom.Position {
	if g.rng.Float64() < 0.8 {
		h := g.hotspots[g.rng.Intn(len(g.hotspots))]
		return g.jitter(h, 0.3)
	}
	return geom.Position{
		X: g.rng.Float64() * geom.DomainSide,
		Y: g.rng.Float64() * geom.DomainSide,
		Z: g.rng.Float64() * geom.DomainSide,
	}
}

func (g *generator) jitter(p geom.Position, sigma float64) geom.Position {
	return geom.Wrap(geom.Position{
		X: p.X + float64(g.rng.NormFloat64()*sigma),
		Y: p.Y + float64(g.rng.NormFloat64()*sigma),
		Z: p.Z + float64(g.rng.NormFloat64()*sigma),
	})
}

// drift moves a job's region slowly between consecutive queries, the way
// tracked particle clouds advect.
func (g *generator) drift(p geom.Position) geom.Position {
	return g.jitter(p, 0.08)
}

// makeQuery builds one query: a clustered point cloud by default, or —
// when the query-class knobs are set — a box/sphere cutout or a temporal-
// derivative chain. The class selector draws randomness only when a
// non-point class is enabled, so classless configs (the fig8 trace)
// consume the rng exactly as the original generator did.
func (g *generator) makeQuery(jobID int64, seq, step int, center geom.Position, arrival time.Duration) *query.Query {
	g.nextQuery++
	if g.cfg.BoxFrac > 0 || g.cfg.DerivFrac > 0 {
		r := g.rng.Float64()
		if r < g.cfg.BoxFrac {
			return g.makeCutout(jobID, seq, step, center, arrival)
		}
		if r < g.cfg.BoxFrac+g.cfg.DerivFrac {
			return g.makeDeriv(jobID, seq, step, center, arrival)
		}
	}
	n := g.cfg.PointsPerQuery/2 + g.rng.Intn(g.cfg.PointsPerQuery)
	pts := make([]geom.Position, n)
	for i := range pts {
		pts[i] = g.jitter(center, 0.08)
	}
	return &query.Query{
		ID:      g.nextQuery,
		JobID:   jobID,
		Seq:     seq,
		Step:    step,
		Points:  pts,
		Kernel:  g.kernelFor(jobID),
		User:    0, // set by caller via job
		Arrival: arrival,
	}
}

// kernelFor rotates the interpolation kernel per job, as the original
// generator did.
func (g *generator) kernelFor(jobID int64) field.Kernel {
	kernels := []field.Kernel{field.KernelNone, field.KernelTrilinear, field.KernelLag4, field.KernelLag6, field.KernelLag8}
	return kernels[int(jobID)%len(kernels)]
}

// traceRecords renders the job as raw log lines with ground truth labels.
func (g *generator) traceRecords(j *job.Job, arrival time.Duration) []job.TraceRecord {
	recs := make([]job.TraceRecord, len(j.Queries))
	for i, q := range j.Queries {
		sub := arrival + time.Duration(i)*g.submitSpacing()
		recs[i] = job.TraceRecord{
			QueryID:   q.ID,
			User:      j.User,
			Kernel:    q.Kernel,
			Step:      q.Step,
			NumPoints: len(q.Points),
			Submitted: sub,
			TrueJobID: j.ID,
		}
	}
	return recs
}
