package engine

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"jaws/internal/cache"
	"jaws/internal/field"
	"jaws/internal/geom"
	"jaws/internal/job"
	"jaws/internal/obs"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/store"
)

func testStore(t testing.TB) *store.Store {
	t.Helper()
	return frameStore(t, 4, 0)
}

var testCost = sched.CostModel{Tb: 40 * time.Millisecond, Tm: 20 * time.Microsecond}

func newEngine(t testing.TB, s *store.Store, sc sched.Scheduler, jobAware bool, opts ...func(*Config)) *Engine {
	t.Helper()
	cfg := Config{
		Store:    s,
		Cache:    cache.New(16, cache.NewLRUK(1, 0)),
		Sched:    sc,
		Cost:     testCost,
		JobAware: jobAware,
	}
	for _, o := range opts {
		o(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// pointsInAtom returns n positions spread inside atom (i,j,k).
func pointsInAtom(s *store.Store, i, j, k uint32, n int) []geom.Position {
	sp := s.Space()
	atomLen := float64(sp.AtomSide) * sp.VoxelSize()
	pts := make([]geom.Position, n)
	for p := 0; p < n; p++ {
		f := (float64(p) + 0.5) / float64(n)
		pts[p] = geom.Position{
			X: (float64(i) + f) * atomLen,
			Y: (float64(j) + 0.3) * atomLen,
			Z: (float64(k) + 0.7) * atomLen,
		}
	}
	return pts
}

// batchedJob builds a batched job of single-atom queries arriving at the
// given times.
func batchedJob(s *store.Store, id int64, arrivals []time.Duration, atomI uint32) *job.Job {
	j := &job.Job{ID: id, User: int(id), Type: job.Batched}
	for i, at := range arrivals {
		j.Queries = append(j.Queries, &query.Query{
			ID:      query.ID(id*1000 + int64(i)),
			JobID:   id,
			Seq:     i,
			Step:    0,
			Points:  pointsInAtom(s, atomI, 0, 0, 50),
			Kernel:  field.KernelNone,
			Arrival: at,
		})
	}
	return j
}

// orderedJob builds an ordered job whose queries walk across atoms
// (steps[i], atom x=atoms[i]).
func orderedJob(s *store.Store, id int64, steps []int, atoms []uint32, think time.Duration, arrival time.Duration) *job.Job {
	j := &job.Job{ID: id, User: int(id), Type: job.Ordered, ThinkTime: think}
	for i := range steps {
		j.Queries = append(j.Queries, &query.Query{
			ID:     query.ID(id*1000 + int64(i)),
			JobID:  id,
			Seq:    i,
			Step:   steps[i],
			Points: pointsInAtom(s, atoms[i], 1, 1, 50),
			Kernel: field.KernelNone,
		})
	}
	j.Queries[0].Arrival = arrival
	return j
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestRunSingleQuery(t *testing.T) {
	s := testStore(t)
	e := newEngine(t, s, sched.NewNoShare(), false)
	rep, err := e.Run([]*job.Job{batchedJob(s, 1, []time.Duration{0}, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 1 {
		t.Fatalf("Completed = %d", rep.Completed)
	}
	if rep.Elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if rep.MeanResponse <= 0 {
		t.Fatal("no response time measured")
	}
	if rep.DiskStats.Reads == 0 {
		t.Fatal("no disk reads charged")
	}
}

func TestRunValidatesJobs(t *testing.T) {
	s := testStore(t)
	e := newEngine(t, s, sched.NewNoShare(), false)
	if _, err := e.Run([]*job.Job{{ID: 1}}); err == nil {
		t.Fatal("invalid job accepted")
	}
	// Two jobs under one ID would share one live-job record: Run takes
	// jobs in through the intake a session uses, which refuses the second.
	e = newEngine(t, s, sched.NewNoShare(), false)
	twice := []*job.Job{batchedJob(s, 1, []time.Duration{0}, 0), batchedJob(s, 1, []time.Duration{0}, 1)}
	if _, err := e.Run(twice); err == nil || !strings.Contains(err.Error(), "already submitted") {
		t.Fatalf("duplicate job ID: %v", err)
	}
}

func TestOrderedJobRunsInSequence(t *testing.T) {
	s := testStore(t)
	e := newEngine(t, s, sched.NewNoShare(), false, func(c *Config) { c.KeepResults = true })
	think := 100 * time.Millisecond
	j := orderedJob(s, 1, []int{0, 1, 2}, []uint32{0, 1, 2}, think, 0)
	rep, err := e.Run([]*job.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 3 {
		t.Fatalf("Completed = %d", rep.Completed)
	}
	// Completion order must follow sequence and arrivals must respect
	// think time.
	var prevDone time.Duration
	for i, r := range rep.Results {
		if r.Query.Seq != i {
			t.Fatalf("completion order broken: result %d is seq %d", i, r.Query.Seq)
		}
		if i > 0 && r.Query.Arrival != prevDone+think {
			t.Fatalf("successor arrival %v != predecessor completion %v + think", r.Query.Arrival, prevDone)
		}
		prevDone = r.Completed
	}
}

func TestSharedAtomReadOnce(t *testing.T) {
	// Two queries on the same atom under LifeRaft: co-scheduled into one
	// batch, the atom is read from disk exactly once.
	s := testStore(t)
	lr := sched.NewLifeRaft(testCost, 0, nil)
	e := newEngine(t, s, lr, false)
	jobs := []*job.Job{
		batchedJob(s, 1, []time.Duration{0}, 3),
		batchedJob(s, 2, []time.Duration{0}, 3),
	}
	rep, err := e.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DiskStats.Reads != 1 {
		t.Fatalf("shared atom read %d times, want 1", rep.DiskStats.Reads)
	}
}

func TestNoShareReadsPerQueryButHitsCache(t *testing.T) {
	s := testStore(t)
	e := newEngine(t, s, sched.NewNoShare(), false)
	jobs := []*job.Job{
		batchedJob(s, 1, []time.Duration{0}, 3),
		batchedJob(s, 2, []time.Duration{0}, 3),
	}
	rep, err := e.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Two separate executions of the same atom: second is a cache hit
	// (incidental sharing), so still one disk read but two cache accesses.
	if rep.CacheStats.Hits != 1 || rep.CacheStats.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss", rep.CacheStats)
	}
}

func TestComputeProducesAccurateValues(t *testing.T) {
	s := testStore(t)
	e := newEngine(t, s, sched.NewNoShare(), false, func(c *Config) {
		c.Compute = true
		c.KeepResults = true
	})
	j := &job.Job{ID: 1, User: 1, Type: job.Batched}
	j.Queries = append(j.Queries, &query.Query{
		ID: 1, JobID: 1, Step: 2,
		Points: pointsInAtom(s, 1, 1, 1, 20),
		Kernel: field.KernelTrilinear,
	})
	rep, err := e.Run([]*job.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || len(rep.Results[0].Positions) != 20 {
		t.Fatalf("results missing: %+v", rep.Results)
	}
	// Interpolated values must approximate the analytic field.
	f := s.Field()
	for _, pv := range rep.Results[0].Positions {
		truth := f.Eval(2, geom.Position{X: pv.Pos.X, Y: pv.Pos.Y, Z: pv.Pos.Z})
		for c := 0; c < 3; c++ {
			if math.Abs(pv.Val[c]-truth[c]) > 0.35 {
				t.Fatalf("interpolated %g vs truth %g (component %d)", pv.Val[c], truth[c], c)
			}
		}
	}
}

func TestJobAwareGatingSharesIO(t *testing.T) {
	// Two ordered jobs walking the same atom sequence with staggered
	// arrivals. Job-aware JAWS should align their execution so each atom
	// is read fewer times than the gate-less run.
	s := testStore(t)
	mkJobs := func() []*job.Job {
		var jobs []*job.Job
		for id := int64(1); id <= 2; id++ {
			j := orderedJob(s, id,
				[]int{0, 1, 2, 3},
				[]uint32{0, 1, 2, 3},
				10*time.Millisecond,
				time.Duration(id-1)*50*time.Millisecond)
			jobs = append(jobs, j)
		}
		return jobs
	}

	run := func(jobAware bool) *Report {
		st := testStore(t)
		c := cache.New(2, cache.NewLRUK(1, 0)) // tiny cache: sharing must come from co-scheduling
		js := sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 4, InitialAlpha: 0, Resident: c.Contains})
		e, err := New(Config{Store: st, Cache: c, Sched: js, Cost: testCost, JobAware: jobAware})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(mkJobs())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	aware := run(true)
	blind := run(false)
	if aware.Completed != 8 || blind.Completed != 8 {
		t.Fatalf("completions %d/%d", aware.Completed, blind.Completed)
	}
	if aware.GatingAdmitted == 0 {
		t.Fatal("job-aware run admitted no gating edges")
	}
	if aware.DiskStats.Reads > blind.DiskStats.Reads {
		t.Fatalf("job-aware reads %d > blind reads %d", aware.DiskStats.Reads, blind.DiskStats.Reads)
	}
}

func TestRunAccountingFiresOnRunEnd(t *testing.T) {
	s := testStore(t)
	jawsSched := sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 4, InitialAlpha: 0.5, Adaptive: true})
	e := newEngine(t, s, jawsSched, false, func(c *Config) { c.RunLength = 4 })
	var jobs []*job.Job
	for id := int64(1); id <= 4; id++ {
		jobs = append(jobs, batchedJob(s, id, []time.Duration{0, time.Second, 2 * time.Second}, uint32(id)))
	}
	rep, err := e.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 12 {
		t.Fatalf("Completed = %d", rep.Completed)
	}
	if len(rep.Runs) != 3 {
		t.Fatalf("expected 3 runs of 4 queries, got %d", len(rep.Runs))
	}
	for _, r := range rep.Runs {
		if r.Throughput < 0 || r.MeanRespSec < 0 {
			t.Fatalf("bad run stats %+v", r)
		}
	}
}

func TestURCCoordinationUpdatesUtilities(t *testing.T) {
	s := testStore(t)
	urc := cache.NewURC()
	c := cache.New(8, urc)
	js := sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 4, Resident: c.Contains})
	reg := obs.NewRegistry()
	e, err := New(Config{Store: s, Cache: c, Sched: js, Cost: testCost, Obs: &obs.Obs{Reg: reg}})
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*job.Job
	for id := int64(1); id <= 6; id++ {
		jobs = append(jobs, batchedJob(s, id, []time.Duration{0}, uint32(id%4)))
	}
	if _, err := e.Run(jobs); err != nil {
		t.Fatal(err)
	}
	// One coordination pass per decision: the URC sees every decision's
	// utilities.
	pushes := reg.Counter("jaws_utility_pushes_total").Value()
	decisions := reg.Counter("jaws_decisions_total").Value()
	if pushes == 0 || pushes != decisions {
		t.Fatalf("%d utility pushes for %d decisions, want one per decision", pushes, decisions)
	}
}

func TestDeterministicRuns(t *testing.T) {
	runOnce := func() *Report {
		s := testStore(t)
		c := cache.New(8, cache.NewLRUK(1, 0))
		js := sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 3, InitialAlpha: 0.5, Resident: c.Contains})
		e, err := New(Config{Store: s, Cache: c, Sched: js, Cost: testCost, JobAware: true})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		var jobs []*job.Job
		for id := int64(1); id <= 5; id++ {
			steps := make([]int, 3)
			atoms := make([]uint32, 3)
			for i := range steps {
				steps[i] = rng.Intn(4)
				atoms[i] = uint32(rng.Intn(4))
			}
			jobs = append(jobs, orderedJob(s, id, steps, atoms, time.Millisecond, time.Duration(id)*10*time.Millisecond))
		}
		rep, err := e.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := runOnce(), runOnce()
	if a.Elapsed != b.Elapsed || a.ThroughputQPS != b.ThroughputQPS ||
		a.DiskStats.Reads != b.DiskStats.Reads || a.CacheStats.Hits != b.CacheStats.Hits {
		t.Fatalf("virtual-time runs not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}

func TestFootprintAtomsCharged(t *testing.T) {
	// A Lag8 query near an atom face must read the neighbour atoms too.
	s := testStore(t)
	e := newEngine(t, s, sched.NewNoShare(), false)
	sp := s.Space()
	atomLen := float64(float64(sp.AtomSide) * sp.VoxelSize())
	j := &job.Job{ID: 1, User: 1, Type: job.Batched}
	j.Queries = append(j.Queries, &query.Query{
		ID: 1, JobID: 1, Step: 0,
		Points: []geom.Position{{X: atomLen + float64(0.5*sp.VoxelSize()), Y: 1.5 * atomLen, Z: 1.5 * atomLen}},
		Kernel: field.KernelLag8,
	})
	rep, err := e.Run([]*job.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DiskStats.Reads < 2 {
		t.Fatalf("footprint atoms not charged: %d reads", rep.DiskStats.Reads)
	}
}

func TestThroughputOrderingAcrossSchedulers(t *testing.T) {
	// A contended workload: JAWS and LifeRaft(0) must beat NoShare on
	// virtual-time throughput. This is the minimal Fig. 10 sanity check.
	mkJobs := func(s *store.Store) []*job.Job {
		rng := rand.New(rand.NewSource(3))
		var jobs []*job.Job
		for id := int64(1); id <= 12; id++ {
			atom := uint32(rng.Intn(3)) // heavy overlap on 3 atoms
			arr := time.Duration(rng.Intn(50)) * time.Millisecond
			jobs = append(jobs, batchedJob(s, id, []time.Duration{arr}, atom))
		}
		return jobs
	}
	run := func(mk func(c *cache.Cache) sched.Scheduler) float64 {
		s := testStore(t)
		c := cache.New(2, cache.NewLRUK(1, 0))
		e, err := New(Config{Store: s, Cache: c, Sched: mk(c), Cost: testCost})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(mkJobs(s))
		if err != nil {
			t.Fatal(err)
		}
		return rep.ThroughputQPS
	}
	noshare := run(func(*cache.Cache) sched.Scheduler { return sched.NewNoShare() })
	liferaft := run(func(c *cache.Cache) sched.Scheduler {
		return sched.NewLifeRaft(testCost, 0, c.Contains)
	})
	jawsTp := run(func(c *cache.Cache) sched.Scheduler {
		return sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 5, Resident: c.Contains})
	})
	if liferaft <= noshare {
		t.Fatalf("LifeRaft (%.2f qps) did not beat NoShare (%.2f qps)", liferaft, noshare)
	}
	if jawsTp <= noshare {
		t.Fatalf("JAWS (%.2f qps) did not beat NoShare (%.2f qps)", jawsTp, noshare)
	}
}

func BenchmarkEngineRunJAWS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := testStore(b)
		c := cache.New(16, cache.NewLRUK(1, 0))
		js := sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 5, Resident: c.Contains})
		e, err := New(Config{Store: s, Cache: c, Sched: js, Cost: testCost, JobAware: true})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		var jobs []*job.Job
		for id := int64(1); id <= 10; id++ {
			steps := make([]int, 4)
			atoms := make([]uint32, 4)
			for i := range steps {
				steps[i] = rng.Intn(4)
				atoms[i] = uint32(rng.Intn(4))
			}
			jobs = append(jobs, orderedJob(s, id, steps, atoms, time.Millisecond, 0))
		}
		if _, err := e.Run(jobs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPrefetchImprovesHitRatio(t *testing.T) {
	// A drifting ordered job stepping through time: without prefetch every
	// new step's atoms are cold; with trajectory prefetch they are warmed
	// during think time.
	mkJob := func(s *store.Store) *job.Job {
		sp := s.Space()
		atomLen := float64(sp.AtomSide) * sp.VoxelSize()
		j := &job.Job{ID: 1, User: 1, Type: job.Ordered, ThinkTime: 500 * time.Millisecond}
		for i := 0; i < 4; i++ {
			j.Queries = append(j.Queries, &query.Query{
				ID: query.ID(i + 1), JobID: 1, Seq: i, Step: i,
				Points: pointsInAtom(s, uint32(i), 1, 1, 40),
				Kernel: field.KernelNone,
			})
			_ = atomLen
		}
		j.Queries[0].Arrival = 0
		return j
	}
	run := func(pf bool) *Report {
		s := testStore(t)
		c := cache.New(16, cache.NewLRUK(1, 0))
		e, err := New(Config{
			Store: s, Cache: c, Sched: sched.NewNoShare(), Cost: testCost,
			Prefetch: pf,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run([]*job.Job{mkJob(s)})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	off := run(false)
	on := run(true)
	if on.PrefetchedAtoms == 0 {
		t.Fatal("prefetch issued nothing")
	}
	if off.PrefetchedAtoms != 0 {
		t.Fatal("prefetch ran while disabled")
	}
	if on.CacheStats.Hits <= off.CacheStats.Hits {
		t.Fatalf("prefetch did not add hits: %d vs %d", on.CacheStats.Hits, off.CacheStats.Hits)
	}
	if on.Elapsed > off.Elapsed {
		t.Fatalf("prefetch slowed the run: %v vs %v", on.Elapsed, off.Elapsed)
	}
}

func TestPrefetchBudgetBounded(t *testing.T) {
	// With zero think time there is no idle window: nothing may be
	// prefetched.
	s := testStore(t)
	c := cache.New(16, cache.NewLRUK(1, 0))
	e, err := New(Config{Store: s, Cache: c, Sched: sched.NewNoShare(), Cost: testCost, Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	j := orderedJob(s, 1, []int{0, 1, 2}, []uint32{0, 1, 2}, 0, 0)
	rep, err := e.Run([]*job.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PrefetchedAtoms != 0 {
		t.Fatalf("prefetched %d atoms with no think window", rep.PrefetchedAtoms)
	}
}

func TestDeclareUpfrontGatesFirstQueries(t *testing.T) {
	// Two jobs sharing their whole sequence, arriving far apart. With
	// incremental registration the early job may finish before the late
	// one registers; with declared jobs the gating edges exist from the
	// start, so the early job waits and every shared atom is read once.
	mkJobs := func(s *store.Store) []*job.Job {
		a := orderedJob(s, 1, []int{0, 1, 2, 3}, []uint32{0, 1, 2, 3}, time.Millisecond, 0)
		b := orderedJob(s, 2, []int{0, 1, 2, 3}, []uint32{0, 1, 2, 3}, time.Millisecond, 2*time.Second)
		return []*job.Job{a, b}
	}
	run := func(declare bool) *Report {
		s := testStore(t)
		c := cache.New(2, cache.NewLRUK(1, 0))
		js := sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 4, InitialAlpha: 0, Resident: c.Contains})
		e, err := New(Config{Store: s, Cache: c, Sched: js, Cost: testCost,
			JobAware: true, DeclareUpfront: declare})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(mkJobs(s))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	inc := run(false)
	dec := run(true)
	if dec.GatingAdmitted == 0 {
		t.Fatal("declared mode admitted no edges")
	}
	// Declared mode must not read more than incremental; with a 2-atom
	// cache and a 2 s offset it should read strictly fewer atoms.
	if dec.DiskStats.Reads > inc.DiskStats.Reads {
		t.Fatalf("declared jobs read more: %d vs %d", dec.DiskStats.Reads, inc.DiskStats.Reads)
	}
	if dec.Completed != 8 || inc.Completed != 8 {
		t.Fatalf("completions %d/%d", dec.Completed, inc.Completed)
	}
}
