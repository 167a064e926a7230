package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"jaws"
	"jaws/internal/bench"
	"jaws/internal/experiments"
	"jaws/internal/geom"
	"jaws/internal/job"
)

// replaySpec is one in-process trace-replay workload.
type replaySpec struct {
	name string
	// warm reuses one System across replays, so its cache stays resident
	// and the store is bypassed; the first replay is then untimed set-up.
	// Otherwise every replay opens a fresh System.
	warm bool
	// scale is the experiment scale of the trace and the system for a
	// workload seed.
	scale func() experiments.Scale
}

var replaySpecs = []replaySpec{
	{
		// The paper's experiment and the BENCH_main.json configuration:
		// seed 1 replays exactly the trace every CI gate replays.
		name: "replay-cold",
		scale: func() experiments.Scale {
			return experiments.DefaultScale()
		},
	},
	{
		// Derivative chains under the full tail-policy stack with a cache
		// that holds the whole 8-step store: no reads after the first
		// replay, so PreProcess, jobgraph admission and the tail policies'
		// NextBatch do the work.
		name: "replay-warm", warm: true,
		scale: func() experiments.Scale {
			s := experiments.DefaultScale()
			s.Scenario = "deriv-chain"
			s.Steps = 8
			s.CacheAtoms = 8 * s.Space.AtomsPerStep()
			s.TailPolicy = "gate-aware;cross-step:span=2;adaptive-batch"
			return s
		},
	},
}

// freshJobs generates the workload's trace. The trace generator's seed
// moves the work per query by far more than any bound (hot spots and the
// heavy-tailed job sizes are redrawn), so every workload seed replays the
// canonical trace, carried to another place in the periodic domain: seed n
// shifts every position by a seed-drawn whole number of atoms per axis.
// Sharing between queries is untouched; atom identities, Morton order and
// disk addresses all change. Seed 1 shifts by nothing.
func freshJobs(s experiments.Scale, seed int64) []*job.Job {
	jobs := experiments.FreshJobs(s, 1)
	if seed == 1 {
		return jobs
	}
	rng := rand.New(rand.NewSource(seed))
	n := s.Space.AtomsPerAxis()
	atomLen := float64(s.Space.AtomSide) * s.Space.VoxelSize()
	dx, dy, dz := float64(rng.Intn(n))*atomLen, float64(rng.Intn(n))*atomLen, float64(rng.Intn(n))*atomLen
	for _, j := range jobs {
		for _, q := range j.Queries {
			for i, p := range q.Points {
				q.Points[i] = geom.Wrap(geom.Position{X: p.X + dx, Y: p.Y + dy, Z: p.Z + dz})
			}
		}
	}
	return jobs
}

// shrink cuts the trace for the smoke test.
func shrink(s experiments.Scale, scale float64) experiments.Scale {
	if scale < 1 {
		if s.Jobs = int(float64(s.Jobs) * scale); s.Jobs < 8 {
			s.Jobs = 8
		}
	}
	return s
}

// facadeConfig maps an experiment scale onto the public facade exactly as
// experiments.RunAlgorithm assembles JAWS2, so the replay's virtual-time
// figures are the BENCH_*.json ones.
func facadeConfig(s experiments.Scale) jaws.Config {
	return jaws.Config{
		Space:      s.Space,
		Steps:      s.Steps,
		Seed:       s.Seed,
		SampleSide: s.SampleSide,
		Scheduler:  jaws.SchedJAWS2,
		BatchSize:  s.BatchSize,
		CacheAtoms: s.CacheAtoms,
		Cost:       s.Cost,
		RunLength:  s.RunLength,
		TailPolicy: s.TailPolicy,
	}
}

// figures are the virtual-time results of one replay that the correctness
// check pins: they do not depend on the machine or on wall time.
type figures struct {
	Completed     int     `json:"completed"`
	ThroughputQPS float64 `json:"throughput_qps"`
	HitRate       float64 `json:"cache_hit_rate"`
	DiskReads     int64   `json:"disk_reads"`
}

// counters are the cumulative cache and disk counts of a System after a
// Run. The facade's store and cache outlive the engine, so a replay's own
// counts are the difference to the preceding replay's.
type counters struct {
	hits, misses, reads int64
}

func countersOf(rep *jaws.Report) counters {
	return counters{hits: rep.CacheStats.Hits, misses: rep.CacheStats.Misses, reads: rep.DiskStats.Reads}
}

// figuresOf extracts one replay's figures; prev is the System's counters
// before the replay (zero for a fresh one).
func figuresOf(rep *jaws.Report, prev counters) figures {
	c := countersOf(rep)
	hits, misses := c.hits-prev.hits, c.misses-prev.misses
	return figures{
		Completed:     rep.Completed,
		ThroughputQPS: rep.ThroughputQPS,
		HitRate:       ratio(float64(hits), float64(hits+misses)),
		DiskReads:     c.reads - prev.reads,
	}
}

// goldenSeeds are the workload seeds testdata/golden.json covers (-regen
// writes them). Other seeds are checked for completeness and for identical
// figures across a run's replays only.
const goldenSeeds = 16

func goldenPath(root string) string {
	return filepath.Join(root, "benchmark", "testdata", "golden.json")
}

func goldenKey(workload string, seed int64) string { return fmt.Sprintf("%s/%d", workload, seed) }

func loadGolden(root string) (map[string]figures, error) {
	b, err := os.ReadFile(goldenPath(root))
	if err != nil {
		return nil, err
	}
	g := map[string]figures{}
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(root), err)
	}
	return g, nil
}

// expected returns the figures a full-scale replay of (workload, seed) must
// reproduce, and where they come from; ok is false when nothing pins them.
// replay-cold at seed 1 is the BENCH_main.json configuration, so the
// committed artifact itself is the reference there.
func expected(o options, spec replaySpec, s experiments.Scale) (want figures, source string, ok bool, err error) {
	if o.scale != 1 {
		return want, "", false, nil
	}
	if spec.name == "replay-cold" && o.seed == 1 {
		path := filepath.Join(o.root, "BENCH_main.json")
		a, err := bench.Load(path)
		if err != nil {
			return want, "", false, err
		}
		c := a.Config
		if c.Seed != s.Seed || c.Jobs != s.Jobs || c.Steps != s.Steps || c.CacheAtoms != s.CacheAtoms ||
			c.BatchSize != s.BatchSize || c.GridSide != s.Space.GridSide || c.Algorithm != "JAWS2" || c.Policy != "" {
			return want, "", false, fmt.Errorf("%s records config %+v, not the default scale this workload replays", path, c)
		}
		return figures{Completed: a.Completed, ThroughputQPS: a.ThroughputQPS, HitRate: a.CacheHitRate, DiskReads: a.DiskReads}, "BENCH_main.json", true, nil
	}
	g, err := loadGolden(o.root)
	if err != nil {
		return want, "", false, err
	}
	want, ok = g[goldenKey(spec.name, o.seed)]
	return want, "testdata/golden.json", ok, nil
}

// replayRun is one timed Run call.
type replayRun struct {
	wall    time.Duration
	cpu     time.Duration
	mem     memCounters // deltas over the call
	queries int
	report  *jaws.Report
}

func countQueries(jobs []*job.Job) int {
	n := 0
	for _, j := range jobs {
		n += len(j.Queries)
	}
	return n
}

// timedRun replays jobs on sys once, bracketing the call with the process's
// CPU and allocator counters. A collection first gives every replay the
// same clean heap to start from.
func timedRun(run func([]*job.Job) (*jaws.Report, error), jobs []*job.Job) (replayRun, error) {
	runtime.GC()
	m0, c0, t0 := selfMem(false), selfCPU(), time.Now()
	rep, err := run(jobs)
	r := replayRun{wall: time.Since(t0), cpu: selfCPU() - c0, queries: countQueries(jobs), report: rep}
	m1 := selfMem(false)
	r.mem = memCounters{Mallocs: m1.Mallocs - m0.Mallocs, TotalAlloc: m1.TotalAlloc - m0.TotalAlloc}
	return r, err
}

// warmSetups is how many times the warm workload sets up.
const warmSetups = 3

// minReplays is the fewest timed replays a run makes however short its
// measured seconds, so the identical-figures check always compares.
const minReplays = 2

// runReplay measures one replay workload through the public facade.
func runReplay(spec replaySpec, o options) (*outcome, error) {
	out := &outcome{Workload: spec.name, Seed: o.seed, Metrics: metricSet{}}
	scale := shrink(spec.scale(), o.scale)
	cfg := facadeConfig(scale)
	want, source, pinned, err := expected(o, spec, scale)
	if err != nil {
		return nil, err
	}

	var (
		sys     *jaws.System
		prev    counters
		last    *jaws.Report
		setups  []float64
		runs    []replayRun
		first   figures
		elapsed time.Duration
	)
	// The warm workload sets up once: open the System and fill its cache
	// with one untimed replay. Done warmSetups times over, keeping the last
	// System, so that setup_s is a median.
	for spec.warm && len(setups) < warmSetups {
		t0 := time.Now()
		if sys, err = jaws.Open(cfg); err != nil {
			return nil, err
		}
		rep, err := sys.Run(freshJobs(scale, o.seed))
		if err != nil {
			return nil, err
		}
		prev = countersOf(rep)
		setups = append(setups, time.Since(t0).Seconds())
	}
	budget := o.dur(1)
	for len(runs) < minReplays || elapsed < budget {
		// Untimed per replay: a fresh trace (the engine mutates arrival
		// times in place) and, for the cold workload, a fresh System, which
		// is its set-up.
		t0 := time.Now()
		jobs := freshJobs(scale, o.seed)
		if !spec.warm {
			if sys, err = jaws.Open(cfg); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}

		r, err := timedRun(sys.Run, jobs)
		if err != nil {
			return nil, fmt.Errorf("%s: replay %d: %w", spec.name, len(runs), err)
		}
		got := figuresOf(r.report, prev)
		if spec.warm {
			prev = countersOf(r.report)
		}
		// Only the newest report stays referenced: a Report points into its
		// engine, so keeping them all would grow the live heap with the
		// number of replays a run happens to fit.
		last, r.report = r.report, nil
		out.Attempted += int64(r.queries)
		switch {
		case got.Completed != r.queries:
			out.fail(int64(r.queries-got.Completed), "replay %d completed %d of %d queries", len(runs), got.Completed, r.queries)
		case pinned && got != want:
			out.fail(int64(r.queries), "replay %d reports %+v, %s pins %+v", len(runs), got, source, want)
		case len(runs) > 0 && got != first:
			out.fail(int64(r.queries), "replay %d reports %+v, replay 0 reported %+v", len(runs), got, first)
		}
		if len(runs) == 0 {
			first = got
		}
		runs = append(runs, r)
		elapsed += r.wall
	}

	// What a caller holds after Run returns: the System and one Report.
	live := selfMem(true)
	runtime.KeepAlive(sys)
	runtime.KeepAlive(last)
	bookReplays(out.Metrics, runs)
	out.Metrics["setup_s"] = median(setups)
	out.Metrics["live_heap_mb"] = float64(live.HeapAlloc) / (1 << 20)
	if !pinned {
		out.note("no pinned figures for seed %d at scale %g: checked completeness and identical figures across replays only", o.seed, o.scale)
	}
	out.note("%d timed replays of %d queries, virtual-time figures %+v", len(runs), runs[0].queries, first)
	out.Correct = out.Failed == 0
	return out, nil
}

// bookReplays turns timed replays into the end-to-end figures: one
// operation is one Run call. Every replay of a run does the same work, so
// each figure is the median replay's, which a stall during one replay does
// not move.
func bookReplays(m metricSet, runs []replayRun) {
	var wall, cpu, mallocs, bytes []float64
	for _, r := range runs {
		q := float64(r.queries)
		wall = append(wall, r.wall.Seconds()/q)
		cpu = append(cpu, float64(r.cpu)/float64(time.Millisecond)/q)
		mallocs = append(mallocs, float64(r.mem.Mallocs)/q)
		bytes = append(bytes, float64(r.mem.TotalAlloc)/1024/q)
	}
	m["qps"] = ratio(1, median(wall))
	m["lat_p50_ms"] = median(wall) * float64(runs[0].queries) * 1000
	m["cpu_ms_per_query"] = median(cpu)
	m["allocs_per_query"] = median(mallocs)
	m["alloc_kb_per_query"] = median(bytes)
}

// replayFigures replays (spec, seed) once at full scale and returns the
// figures the goldens pin: for the warm workload, those of the first
// replay over a warmed cache.
func replayFigures(spec replaySpec, seed int64) (figures, error) {
	scale := spec.scale()
	sys, err := jaws.Open(facadeConfig(scale))
	if err != nil {
		return figures{}, err
	}
	var prev counters
	if spec.warm {
		rep, err := sys.Run(freshJobs(scale, seed))
		if err != nil {
			return figures{}, err
		}
		prev = countersOf(rep)
	}
	rep, err := sys.Run(freshJobs(scale, seed))
	if err != nil {
		return figures{}, err
	}
	return figuresOf(rep, prev), nil
}
