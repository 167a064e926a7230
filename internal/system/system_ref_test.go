package system_test

// The hand-wiring internal/system replaced, kept as the reference the
// assembler is held to (as lruk_ref_test.go keeps its predecessor; DESIGN.md
// §12 lists one reference per mechanism): jaws.Open, newScheduler and the
// engine.Config literal of System.Run / OpenSession as they stood before
// it, constructor by constructor, plus the ablation study's NoMortonOrder
// hand-off.

import (
	"fmt"
	"reflect"
	"testing"

	"jaws/internal/cache"
	"jaws/internal/engine"
	"jaws/internal/experiments"
	"jaws/internal/fault"
	"jaws/internal/geom"
	"jaws/internal/job"
	"jaws/internal/sched"
	"jaws/internal/store"
	"jaws/internal/system"
)

// refAssemble is the old jaws.Open + newScheduler + engine.Config literal.
func refAssemble(cfg system.Config) (engine.Config, error) {
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
	var tailSpec sched.PolicySpec
	if cfg.TailPolicy != "" {
		spec, err := sched.ParsePolicySpec(cfg.TailPolicy)
		if err != nil {
			return engine.Config{}, err
		}
		if cfg.Scheduler != system.SchedJAWS1 && cfg.Scheduler != system.SchedJAWS2 {
			return engine.Config{}, fmt.Errorf("TailPolicy requires a JAWS scheduler, not %v", cfg.Scheduler)
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
		return engine.Config{}, err
	}
	var pol cache.Policy
	switch cfg.Policy {
	case system.PolicyLRUK:
		pol = cache.NewLRUK(2, 0)
	case system.PolicySLRU:
		pol = cache.NewSLRU(cfg.CacheAtoms, cfg.ProtectedFrac)
	case system.PolicyURC:
		pol = cache.NewURC()
	default:
		return engine.Config{}, fmt.Errorf("unknown cache policy %v", cfg.Policy)
	}
	c := cache.New(cfg.CacheAtoms, pol)

	var sc sched.Scheduler
	switch cfg.Scheduler {
	case system.SchedNoShare:
		sc = sched.NewNoShare()
	case system.SchedLifeRaft1:
		sc = sched.NewLifeRaft(cfg.Cost, 1, c.Contains)
	case system.SchedLifeRaft2:
		sc = sched.NewLifeRaft(cfg.Cost, 0, c.Contains)
	default:
		inner := sched.NewJAWS(sched.JAWSConfig{
			Cost:          cfg.Cost,
			BatchSize:     cfg.BatchSize,
			InitialAlpha:  cfg.InitialAlpha,
			Adaptive:      !cfg.AdaptiveOff,
			Resident:      c.Contains,
			NoMortonOrder: cfg.NoMortonOrder,
		})
		tailSpec.Wrap(inner)
		if cfg.QoSStretch > 0 {
			sched.NewQoS(inner, cfg.Cost, cfg.QoSStretch, 0)
		}
		sc = inner
	}
	return engine.Config{
		Store:            st,
		Cache:            c,
		Sched:            sc,
		Cost:             cfg.Cost,
		JobAware:         cfg.Scheduler == system.SchedJAWS2,
		RunLength:        cfg.RunLength,
		Compute:          cfg.Compute,
		KeepResults:      cfg.KeepResults,
		Parallelism:      cfg.Parallelism,
		FlushPerDecision: cfg.Scheduler == system.SchedNoShare,
		Prefetch:         cfg.Prefetch,
		DeclareUpfront:   cfg.DeclareJobs,
		Obs:              cfg.Obs,
		EngineID:         cfg.Node,
		Fault:            fault.New(cfg.Fault, cfg.FaultSeed, cfg.Node),
	}, nil
}

// refRun is the old System.Run on a fresh system.
func refRun(cfg system.Config, jobs []*job.Job) (*engine.Report, error) {
	ec, err := refAssemble(cfg)
	if err != nil {
		return nil, err
	}
	e, err := engine.New(ec)
	if err != nil {
		return nil, err
	}
	return e.Run(jobs)
}

// refSession is the old jaws.OpenSession.
func refSession(cfg system.Config) (*engine.Session, error) {
	ec, err := refAssemble(cfg)
	if err != nil {
		return nil, err
	}
	return engine.NewSession(ec)
}

// throughSession feeds jobs to a session in one submission, drains the
// result stream and returns the closing report.
func throughSession(t *testing.T, sess *engine.Session, jobs []*job.Job) *engine.Report {
	t.Helper()
	if err := sess.Submit(jobs...); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, j := range jobs {
		total += len(j.Queries)
	}
	for got := 0; got < total; got++ {
		r, open := <-sess.Results()
		if !open {
			t.Fatalf("stream closed after %d of %d results: %v", got, total, sess.Err())
		}
		r.Release()
	}
	return sess.Close()
}

// sameRun holds got to want in everything virtual time determines: the
// completions, the clock, the disk and cache counters, the per-run α
// trajectory and the scheduler's name.
func sameRun(t *testing.T, what string, got, want *engine.Report) {
	t.Helper()
	gs, ws := got.CacheStats, want.CacheStats
	if got.Scheduler != want.Scheduler || got.Completed != want.Completed || got.Elapsed != want.Elapsed ||
		got.DiskStats != want.DiskStats || got.PrefetchedAtoms != want.PrefetchedAtoms ||
		got.GatingAdmitted != want.GatingAdmitted || got.FinalAlpha != want.FinalAlpha ||
		gs.Hits != ws.Hits || gs.Misses != ws.Misses || gs.Evictions != ws.Evictions {
		t.Errorf("%s: diverged from the hand-wired reference:\n got  %s: %d queries in %v, %+v, %d/%d/%d hit/miss/evict, α %v\n want %s: %d queries in %v, %+v, %d/%d/%d, α %v",
			what, got.Scheduler, got.Completed, got.Elapsed, got.DiskStats, gs.Hits, gs.Misses, gs.Evictions, got.FinalAlpha,
			want.Scheduler, want.Completed, want.Elapsed, want.DiskStats, ws.Hits, ws.Misses, ws.Evictions, want.FinalAlpha)
	}
	if !reflect.DeepEqual(got.Runs, want.Runs) {
		t.Errorf("%s: α trajectory diverged over %d / %d runs", what, len(got.Runs), len(want.Runs))
	}
}

// refCases is the matrix: 5 schedulers × 3 cache policies, plus every
// setting of the description that reaches the scheduler or the engine.
func refCases(s experiments.Scale) map[string]system.Config {
	base := func(alg system.Scheduler) system.Config {
		return system.Config{
			Space:      s.Space,
			Steps:      s.Steps,
			SampleSide: s.SampleSide,
			Seed:       s.Seed,
			Scheduler:  alg,
			BatchSize:  s.BatchSize,
			CacheAtoms: s.CacheAtoms,
			Cost:       s.Cost,
			RunLength:  s.RunLength,
		}
	}
	cases := map[string]system.Config{}
	for _, alg := range experiments.AllAlgorithms() {
		for pol := system.PolicyLRUK; pol <= system.PolicyURC; pol++ {
			cfg := base(alg)
			cfg.Policy = pol
			cases[fmt.Sprintf("%v/%v", alg, pol)] = cfg
		}
	}
	for name, delta := range map[string]func(*system.Config){
		"tail stack":    func(c *system.Config) { c.TailPolicy = "gate-aware;cross-step:span=2;adaptive-batch:min=2,max=12" },
		"QoS":           func(c *system.Config) { c.QoSStretch = 8 },
		"QoS x tail":    func(c *system.Config) { c.QoSStretch = 4; c.TailPolicy = "gate-aware;adaptive-batch" },
		"prefetch":      func(c *system.Config) { c.Prefetch = true },
		"declared jobs": func(c *system.Config) { c.DeclareJobs = true },
		"no Morton":     func(c *system.Config) { c.NoMortonOrder = true },
		"alpha set 0":   func(c *system.Config) { c.AlphaSet = true; c.InitialAlpha = 0 },
	} {
		cfg := base(system.SchedJAWS2)
		delta(&cfg)
		cases["JAWS2 "+name] = cfg
	}
	return cases
}

func TestRunMatchesHandWiredReference(t *testing.T) {
	s := experiments.TestScale()
	for name, cfg := range refCases(s) {
		want, err := refRun(cfg, experiments.FreshJobs(s, 1))
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		sys, err := system.Open(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := sys.Run(experiments.FreshJobs(s, 1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameRun(t, name, got, want)
	}
}

func TestSessionMatchesHandWiredReference(t *testing.T) {
	s := experiments.TestScale()
	for name, cfg := range refCases(s) {
		ref, err := refSession(cfg)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		want := throughSession(t, ref, experiments.FreshJobs(s, 1))
		sys, err := system.Open(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sess, err := sys.Session()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameRun(t, name+" (session)", throughSession(t, sess, experiments.FreshJobs(s, 1)), want)
	}
}
