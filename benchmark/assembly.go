package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"jaws"
	"jaws/internal/cache"
	"jaws/internal/engine"
	"jaws/internal/job"
	"jaws/internal/obs"
	"jaws/internal/sched"
	"jaws/internal/server"
	"jaws/internal/store"
)

// assembly is the system under test built in-process from the layers' own
// public constructors, the way the jaws facade and cmd/jawsd build it, so
// that the traced run can put a timing decorator on every seam. It covers
// what the benchmark runs (JAWS2, LRU-K, no faults, no prefetch) and rejects
// anything else. The wiring-drift test holds it to the facade's results.
type assembly struct {
	cfg   jaws.Config
	spec  sched.PolicySpec
	st    *store.Store
	cache *cache.Cache
	// p is nil for the bare assembly (decorators removed).
	p *probes
	// keepResults retains completed queries in Run's report, in completion
	// order: the isolated jobgraph replay needs that order.
	keepResults bool
}

// daemonConfig is the facade configuration cmd/jawsd derives from
// daemonFlags for its one node.
func daemonConfig() jaws.Config {
	return jaws.Config{
		Space:      jaws.Space{GridSide: daemonGrid, AtomSide: daemonAtom},
		Steps:      daemonSteps,
		Seed:       daemonSeed,
		Scheduler:  jaws.SchedJAWS2,
		CacheAtoms: daemonCache,
		Compute:    true,
	}
}

// assemble mirrors jaws.Open. p, when non-nil, decorates the cache policy
// now and the scheduler and hooks of every engine built later.
func assemble(cfg jaws.Config, p *probes) (*assembly, error) {
	if cfg.Scheduler != jaws.SchedJAWS2 || cfg.Policy != jaws.PolicyLRUK || cfg.QoSStretch > 0 ||
		cfg.Prefetch || cfg.DeclareJobs || cfg.Obs != nil || cfg.AlphaSet ||
		cfg.Space.GridSide == 0 || cfg.Steps == 0 || cfg.CacheAtoms == 0 {
		return nil, fmt.Errorf("assembly covers explicit JAWS2/LRU-K configurations only, got %+v", cfg)
	}
	// The facade's defaults for the knobs the benchmark leaves unset.
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 15
	}
	if cfg.InitialAlpha == 0 {
		cfg.InitialAlpha = 0.5
	}
	a := &assembly{cfg: cfg, p: p}
	if cfg.TailPolicy != "" {
		spec, err := sched.ParsePolicySpec(cfg.TailPolicy)
		if err != nil {
			return nil, err
		}
		a.spec = spec
	}
	var err error
	a.st, err = store.Open(store.Config{
		Space:       cfg.Space,
		Steps:       cfg.Steps,
		SampleSide:  cfg.SampleSide,
		SampleGhost: cfg.SampleGhost,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	var pol cache.Policy = cache.NewLRUK(2, 0)
	if p != nil {
		pol = &timedPolicy{inner: pol, p: p}
	}
	a.cache = cache.New(cfg.CacheAtoms, pol)
	return a, nil
}

// engineConfig mirrors the engine.Config both System.Run and
// jaws.OpenSession fill in, with a fresh scheduler.
func (a *assembly) engineConfig() engine.Config {
	inner := sched.NewJAWS(sched.JAWSConfig{
		Cost:         a.cfg.Cost,
		BatchSize:    a.cfg.BatchSize,
		InitialAlpha: a.cfg.InitialAlpha,
		Adaptive:     !a.cfg.AdaptiveOff,
		Resident:     a.cache.Contains,
	})
	var sc sched.Scheduler = inner
	if !a.spec.Empty() {
		sc = a.spec.Wrap(inner)
	}
	if a.p != nil {
		sc = &timedSched{inner: sc, p: a.p}
	}
	return engine.Config{
		Store:       a.st,
		Cache:       a.cache,
		Sched:       sc,
		Cost:        a.cfg.Cost,
		JobAware:    true,
		RunLength:   a.cfg.RunLength,
		Compute:     a.cfg.Compute,
		KeepResults: a.keepResults,
		Parallelism: a.cfg.Parallelism,
	}
}

// installHooks puts the probes' observers on the cache and the disk. It
// must follow engine.New, which clears both for an engine without Obs.
func (a *assembly) installHooks() {
	if a.p == nil {
		return
	}
	co, io := a.p.hooks()
	a.cache.SetObserver(co)
	a.st.SetIOObserver(io)
}

// run mirrors System.Run: a fresh scheduler and engine over the shared
// store and cache.
func (a *assembly) run(jobs []*job.Job, onDecision func(time.Duration, []sched.Batch)) (*engine.Report, error) {
	cfg := a.engineConfig()
	cfg.OnDecision = onDecision
	e, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	a.installHooks()
	return e.Run(jobs)
}

// session mirrors jaws.OpenSession.
func (a *assembly) session() (*engine.Session, error) {
	s, err := engine.NewSession(a.engineConfig())
	if err != nil {
		return nil, err
	}
	// The session's loop is idle until the first Submit, whose channel send
	// orders these writes before the loop's first cache access.
	a.installHooks()
	return s, nil
}

// inproc is the serving stack in this process: a session behind a
// server.Server on a loopback listener, mirroring cmd/jawsd's wiring.
type inproc struct {
	base string
	srv  *server.Server
	hs   *http.Server
	agg  *obs.ReqSpanAgg
	tb   *timedBackend // nil for the bare assembly
	errc chan error
}

// serveInproc opens a session over a and serves it. With rec non-nil the
// backend seam is timed and the server collects its request spans.
func serveInproc(a *assembly, rec *recorder) (*inproc, error) {
	sess, err := a.session()
	if err != nil {
		return nil, err
	}
	s := &inproc{errc: make(chan error, 1)}
	var be server.Backend = sess
	if rec != nil {
		s.tb = newTimedBackend(sess, rec)
		be = s.tb
		s.agg = obs.NewReqSpanAgg()
	}
	s.srv, err = server.New(server.Config{
		Backends:   []server.Backend{be},
		QueueBound: daemonQueue,
		Workers:    daemonWorkers,
		Steps:      daemonSteps,
		ReqSpans:   s.agg,
		ReqIDSeed:  1,
	})
	if err != nil {
		sess.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Shutdown()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		if err := s.hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.errc <- err
		}
		close(s.errc)
	}()
	return s, nil
}

// stop drains the server the way jawsd does and returns its accounting.
func (s *inproc) stop() (server.Stats, error) {
	s.srv.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		return server.Stats{}, err
	}
	if err := <-s.errc; err != nil {
		return server.Stats{}, err
	}
	return s.srv.Stats(), nil
}
