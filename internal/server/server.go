// Package server is the serving layer of the reproduction: the Fig. 7
// "web-service front end" promoted from a demo handler into a real
// subsystem. A Server exposes an HTTP query service over one or more
// long-lived jaws sessions (the engine facade), with the admission
// control and backpressure a batch scheduler needs to face interactive
// traffic:
//
//   - serving slots: a request is served on the goroutine that accepted
//     it, holding one of Workers slots while in a backend, after up to
//     QueueBound others wait for one, in admission order;
//   - load shedding: when QueueBound requests wait (or the in-flight gate
//     is exceeded) requests are rejected immediately with 429 and a
//     Retry-After hint instead of piling up latency;
//   - per-request deadlines: every query carries a wall-clock deadline
//     (client-settable via timeout_ms, capped by MaxDeadline); expiry
//     answers 504, waiting or not, and the engine result is discarded;
//   - graceful drain: Shutdown stops admission, serves every request
//     already accepted, then closes the backends and collects their
//     final reports.
//
// Everything is instrumented through internal/obs (queue-depth and
// in-flight gauges, shed/timeout/error counters, wall- and virtual-time
// latency histograms) and the layer is fault-transparent: a backend
// session killed by an internal/fault crash schedule turns into 502s for
// its waiters and a degraded /healthz, never a hang, so chaos schedules
// exercise the service path end to end.
package server

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"jaws"
	"jaws/internal/obs"
)

// Backend is the query-execution engine behind a Server: the subset of
// *jaws.Session the serving layer needs. Requests are routed across
// backends round-robin, skipping dead ones.
type Backend interface {
	// Submit schedules jobs at the backend's current virtual time. It
	// must return an error (not block) once the backend is closed or dead.
	// The jobs are the backend's to keep: the server never reuses the
	// slice, a submitted job, its query or the query's points, whatever
	// the request's outcome (a timing wrapper may replay the queries after
	// the server stopped).
	Submit(jobs ...*jaws.Job) error
	// Results streams completed queries; the channel closes when the
	// backend stops (cleanly or on a fault).
	Results() <-chan *jaws.QueryResult
	// Close drains in-flight work and returns the final report (nil if
	// the backend died beforehand).
	Close() *jaws.Report
	// Err reports a backend failure (nil in normal operation).
	Err() error
}

// Config parameterizes a Server. The zero value of every knob gets a
// production-shaped default; Backends is the only required field.
type Config struct {
	// Backends are the sessions serving queries; at least one.
	Backends []Backend
	// Reg receives the server's metrics (and is served at /metrics). Nil
	// allocates a private registry so instrumentation is always on.
	Reg *obs.Registry
	// QueueBound is how many admitted requests may wait for a serving
	// slot; default 64. Requests beyond it are shed with 429.
	QueueBound int
	// Workers is the number of serving slots: the maximum number of
	// queries concurrently submitted to the backends; default 8.
	Workers int
	// MaxInFlight caps requests between accept and response (including
	// decode and queue wait); beyond it requests are shed with 429.
	// Default: 4 × (QueueBound + Workers).
	MaxInFlight int
	// MaxBodyBytes bounds the /query request body; default 1 MiB.
	// Oversized bodies are rejected with 413.
	MaxBodyBytes int64
	// MaxPoints bounds positions per query; default 4096.
	MaxPoints int
	// Steps is the number of stored time steps: a query's step must lie
	// in [0, Steps). Default 31 (the paper's store).
	Steps int
	// DefaultDeadline is the per-request deadline when the client sends
	// no timeout_ms; default 30 s.
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines; default 2 min.
	MaxDeadline time.Duration
	// RetryAfter is the hint attached to 429 responses; default 1 s.
	RetryAfter time.Duration

	// Trace, when non-nil, receives one "reqspan" event per request that
	// was assigned an ID (usually the same tracer the backends write
	// engine events to, so one JSONL file carries both sides).
	Trace *obs.Tracer
	// ReqSpans, when non-nil, collects finished request spans for
	// end-of-run summaries (percentiles, attribution, worst-k tail).
	ReqSpans *obs.ReqSpanAgg
	// Log, when non-nil, receives structured request logs (one JSON line
	// per lifecycle event, each carrying the request_id).
	Log *obs.Logger
	// SLO, when non-nil, tracks latency-objective compliance over the
	// accepted requests; exposed through /varz and jaws_slo_* gauges.
	SLO *obs.SLOTracker
	// ReqIDSeed seeds the deterministic request-ID derivation (see
	// obs.RequestID): for a fixed seed the same acceptance order yields
	// the same X-Jaws-Request-Id values.
	ReqIDSeed int64
	// Flight, when non-nil, is the decision flight recorder the backends
	// record into; the server exposes its live aggregates at /varz
	// (decision rate, pass-over counts by cause) and its jaws_sched_*
	// counters at /metrics.
	Flight *obs.FlightRecorder
	// TailPolicy is the tail-policy spec the backends' schedulers were
	// decorated with (see sched.ParsePolicySpec); informational, exposed
	// at /varz so operators can tell which policy stack a node runs.
	TailPolicy string
}

// defaultMaxPoints is the default Config.MaxPoints, and with it the bound
// on the position scratch a pooled request decoder keeps.
const defaultMaxPoints = 4096

func (c *Config) applyDefaults() {
	if c.QueueBound <= 0 {
		c.QueueBound = 64
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * (c.QueueBound + c.Workers)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxPoints <= 0 {
		c.MaxPoints = defaultMaxPoints
	}
	if c.Steps <= 0 {
		c.Steps = 31
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
}

// backendState pairs a backend with its liveness signal.
type backendState struct {
	be Backend
	// dead closes when the backend's result stream ends. During a drain
	// that is normal shutdown; at any other time the backend crashed.
	dead chan struct{}
}

// slot is one of the Workers serving slots: the result channel (cap 1, so
// drain never blocks) of whichever request holds it.
type slot chan *jaws.QueryResult

// Server is the HTTP front end. Create with New, expose Handler on a
// listener, and call Shutdown to drain.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	backends []*backendState
	slots    chan slot // the free serving slots
	start    time.Time

	nextID   atomic.Int64 // query/job ID source, unique across backends
	rr       atomic.Int64 // round-robin backend cursor
	inflight atomic.Int64
	waiting  atomic.Int64 // admitted requests not yet holding a slot
	draining atomic.Bool

	// acceptMu orders admission against Shutdown: admitted.Add runs under
	// the read side, the drain flag flips under the write side.
	acceptMu sync.RWMutex
	admitted sync.WaitGroup
	// demux maps every query a slot holder waits on to its slot: at most
	// Workers entries.
	demuxMu sync.Mutex
	demux   map[jaws.QueryID]slot

	demuxWG      sync.WaitGroup
	shutdownOnce sync.Once
	reports      []*jaws.Report

	// reqTrack is true when a tracer or span aggregator is configured:
	// only then does the handler allocate a ReqSpan per request, keeping
	// the disabled serving path allocation-free.
	reqTrack bool

	// Request accounting, also exported through cfg.Reg and /varz.
	requests, served, shed, rejected *obs.Counter
	timeouts, errcount, unavailable  *obs.Counter
	late                             *obs.Counter
	gQueue, gInflight                *obs.Gauge
	hLatency, hVirtual               *obs.Histogram

	// SLO exposition gauges; nil unless cfg.SLO is set. Refreshed from
	// the tracker's rolling window at scrape time.
	gSLOCompliance, gSLOBurn, gSLOBudget *obs.Gauge
	gSLOGood, gSLOBad                    *obs.Gauge
}

// serverMetricHelp is the # HELP text for the serving layer's metrics.
var serverMetricHelp = map[string]string{
	"jaws_server_requests_total":     "HTTP /query requests received.",
	"jaws_server_served_total":       "Requests answered 200 with query results.",
	"jaws_server_shed_total":         "Requests shed with 429 (queue full or in-flight gate).",
	"jaws_server_rejected_total":     "Requests rejected with 4xx validation failures.",
	"jaws_server_timeouts_total":     "Requests that exceeded their deadline (504).",
	"jaws_server_errors_total":       "Requests failed by a backend (5xx).",
	"jaws_server_unavailable_total":  "Requests refused while draining (503).",
	"jaws_server_late_results_total": "Engine results that arrived after their waiter gave up.",
	"jaws_server_queue_depth":        "Admitted requests waiting for a serving slot.",
	"jaws_server_inflight":           "Requests between accept and response.",
	"jaws_server_latency_seconds":    "Wall-clock request latency from admission to outcome.",
	"jaws_server_virtual_seconds":    "Query response time on the engine's virtual clock.",
	"jaws_slo_compliance":            "Fraction of windowed requests meeting the latency target.",
	"jaws_slo_burn_rate":             "Error-budget burn rate (1 = burning exactly at budget).",
	"jaws_slo_budget_remaining":      "Fraction of the windowed error budget left.",
	"jaws_slo_good":                  "Requests in the window that met the objective.",
	"jaws_slo_bad":                   "Requests in the window that missed the objective.",
	"jaws_trace_dropped_total":       "Trace event lines the trace sink did not receive.",
}

// New validates cfg, starts the per-backend result demultiplexers, and
// returns a servable Server.
func New(cfg Config) (*Server, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("server: at least one backend required")
	}
	cfg.applyDefaults()
	if cfg.Reg == nil {
		cfg.Reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		slots: make(chan slot, cfg.Workers),
		demux: make(map[jaws.QueryID]slot, cfg.Workers),
		start: time.Now(),

		requests:    cfg.Reg.Counter("jaws_server_requests_total"),
		served:      cfg.Reg.Counter("jaws_server_served_total"),
		shed:        cfg.Reg.Counter("jaws_server_shed_total"),
		rejected:    cfg.Reg.Counter("jaws_server_rejected_total"),
		timeouts:    cfg.Reg.Counter("jaws_server_timeouts_total"),
		errcount:    cfg.Reg.Counter("jaws_server_errors_total"),
		unavailable: cfg.Reg.Counter("jaws_server_unavailable_total"),
		late:        cfg.Reg.Counter("jaws_server_late_results_total"),
		gQueue:      cfg.Reg.Gauge("jaws_server_queue_depth"),
		gInflight:   cfg.Reg.Gauge("jaws_server_inflight"),
		hLatency: cfg.Reg.Histogram("jaws_server_latency_seconds",
			0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10),
		hVirtual: cfg.Reg.Histogram("jaws_server_virtual_seconds",
			0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100),
	}
	s.reqTrack = cfg.Trace != nil || cfg.ReqSpans != nil
	for name, help := range serverMetricHelp {
		cfg.Reg.Describe(name, help)
	}
	if cfg.SLO != nil {
		s.gSLOCompliance = cfg.Reg.Gauge("jaws_slo_compliance")
		s.gSLOBurn = cfg.Reg.Gauge("jaws_slo_burn_rate")
		s.gSLOBudget = cfg.Reg.Gauge("jaws_slo_budget_remaining")
		s.gSLOGood = cfg.Reg.Gauge("jaws_slo_good")
		s.gSLOBad = cfg.Reg.Gauge("jaws_slo_bad")
	}
	for _, be := range cfg.Backends {
		b := &backendState{be: be, dead: make(chan struct{})}
		s.backends = append(s.backends, b)
		s.demuxWG.Add(1)
		go s.drain(b)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.slots <- make(slot, 1)
	}
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/varz", s.handleVarz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the public mux (/query, /metrics, /healthz, /varz).
func (s *Server) Handler() http.Handler { return s.mux }

// drain routes one backend's completion stream to the slots registered in
// demux. Results nobody waits for (the waiter timed out or the request was
// canceled) are counted and released here: the handler that gave up never
// sees them.
func (s *Server) drain(b *backendState) {
	defer s.demuxWG.Done()
	defer close(b.dead)
	for r := range b.be.Results() {
		if ch := s.unwait(r.Query.ID); ch != nil {
			ch <- r // cap 1: never blocks
		} else {
			r.Release()
			s.late.Inc()
		}
	}
}

// unwait removes and returns the slot registered for id, nil if there is
// none (any more).
func (s *Server) unwait(id jaws.QueryID) slot {
	s.demuxMu.Lock()
	ch := s.demux[id]
	delete(s.demux, id)
	s.demuxMu.Unlock()
	return ch
}

// expiry is how a request ends without an answer: its deadline timer fires,
// or its client goes away (net/http cancels the request's context). Either
// is a 504.
type expiry struct {
	deadline <-chan time.Time
	gone     <-chan struct{} // nil when the request's context is never canceled
}

// passed reports, without blocking, whether the request has ended.
func (e expiry) passed() bool {
	select {
	case <-e.deadline:
		return true
	case <-e.gone:
		return true
	default:
		return false
	}
}

// serve submits an admitted request, holding slot sl, to a live backend and
// waits for its result, its end, or the backend's death. sl is empty again
// on return: the result was received, or abandon accounted for it.
func (s *Server) serve(end expiry, sl slot, req *request, rs *obs.ReqSpan) outcome {
	rs.Mark(obs.ReqQueued)
	if end.passed() { // ended while queued
		return outcome{status: http.StatusGatewayTimeout}
	}
	b := s.pick()
	id := req.query.ID
	s.demuxMu.Lock()
	s.demux[id] = sl
	s.demuxMu.Unlock()
	err := b.be.Submit(req.jobs[:]...)
	rs.Mark(obs.ReqDispatch)
	if err != nil {
		s.unwait(id)
		return outcome{status: http.StatusBadGateway, err: err}
	}
	select {
	case r := <-sl:
		rs.Mark(obs.ReqExecute)
		return outcome{res: r}
	case <-b.dead:
		rs.Mark(obs.ReqExecute)
		s.abandon(id, sl)
		return outcome{status: http.StatusBadGateway, err: b.be.Err()}
	case <-end.deadline:
	case <-end.gone:
	}
	rs.Mark(obs.ReqExecute)
	s.abandon(id, sl)
	return outcome{status: http.StatusGatewayTimeout}
}

// abandon ends the wait on ch, registered for id, without its result. When
// drain took the channel first — the result and the deadline, or the
// backend's death, came together — the result is in ch or on its way there
// and this handler is the only goroutine left to see it: it is late like
// one drain finds no waiter for, and released and counted here.
func (s *Server) abandon(id jaws.QueryID, ch slot) {
	if s.unwait(id) == nil {
		(<-ch).Release()
		s.late.Inc()
	}
}

// pick returns the next live backend round-robin (any backend when all
// are dead; Submit or the dead channel will surface the failure).
func (s *Server) pick() *backendState {
	n := len(s.backends)
	start := int(s.rr.Add(1)-1) % n
	for i := 0; i < n; i++ {
		b := s.backends[(start+i)%n]
		select {
		case <-b.dead:
		default:
			return b
		}
	}
	return s.backends[start]
}

// healthy reports whether the server is accepting work and every backend
// is live.
func (s *Server) healthy() error {
	if s.draining.Load() {
		return errors.New("draining")
	}
	for i, b := range s.backends {
		select {
		case <-b.dead:
			if err := b.be.Err(); err != nil {
				return fmt.Errorf("backend %d down: %w", i, err)
			}
			return fmt.Errorf("backend %d down", i)
		default:
		}
	}
	return nil
}

// Shutdown gracefully drains the server: admission stops (new queries get
// 503), every admitted request is served, and the backends are closed. It
// returns their final reports (dead backends contribute none); idempotent.
func (s *Server) Shutdown() []*jaws.Report {
	s.shutdownOnce.Do(func() {
		s.acceptMu.Lock()
		s.draining.Store(true)
		s.acceptMu.Unlock()
		s.admitted.Wait()
		for _, b := range s.backends {
			if rep := b.be.Close(); rep != nil {
				s.reports = append(s.reports, rep)
			}
		}
		s.demuxWG.Wait()
	})
	return s.reports
}

// Stats is a point-in-time snapshot of the server's request accounting.
type Stats struct {
	Requests    int64 `json:"requests"`
	Served      int64 `json:"served"`
	Shed        int64 `json:"shed"`
	Rejected    int64 `json:"rejected"`
	Timeouts    int64 `json:"timeouts"`
	Errors      int64 `json:"errors"`
	Unavailable int64 `json:"unavailable"`
	LateResults int64 `json:"late_results"`
	QueueDepth  int   `json:"queue_depth"`
	InFlight    int64 `json:"in_flight"`
	Draining    bool  `json:"draining"`
}

// Stats snapshots the request accounting (also served at /varz).
func (s *Server) Stats() Stats {
	return Stats{
		Requests:    s.requests.Value(),
		Served:      s.served.Value(),
		Shed:        s.shed.Value(),
		Rejected:    s.rejected.Value(),
		Timeouts:    s.timeouts.Value(),
		Errors:      s.errcount.Value(),
		Unavailable: s.unavailable.Value(),
		LateResults: s.late.Value(),
		QueueDepth:  int(s.waiting.Load()),
		InFlight:    s.inflight.Load(),
		Draining:    s.draining.Load(),
	}
}
