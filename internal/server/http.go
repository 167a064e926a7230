package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"jaws"
	"jaws/internal/obs"
)

// Point is a position in the periodic simulation domain [0, 2π)³, the
// wire shape of jaws.Position.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	Z float64 `json:"z"`
}

// QueryRequest is the /query request body. Unknown fields are rejected.
type QueryRequest struct {
	// Step is the stored time step, in [0, Steps).
	Step int `json:"step"`
	// Kernel names the interpolation kernel: none, trilinear, lag4
	// (default), lag6, lag8.
	Kernel string `json:"kernel,omitempty"`
	// Points are the evaluation positions (at most MaxPoints).
	Points []Point `json:"points"`
	// TimeoutMS overrides the server's default per-request deadline,
	// capped by MaxDeadline. Zero means the default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// DerivSteps, when ≥2, asks for the temporal derivative ∂/∂t instead
	// of the field value: the points are evaluated at DerivSteps adjacent
	// steps starting at Step and finite-differenced. The chain must fit
	// the stored range (step+deriv_steps ≤ steps) and is capped at
	// MaxDerivSteps. 0 (and 1) means a plain single-step query.
	DerivSteps int `json:"deriv_steps,omitempty"`
}

// MaxDerivSteps bounds a derivative query's chain: each extra step
// multiplies the query's atom footprint, so the bound plays the same
// admission-control role as MaxPoints.
const MaxDerivSteps = 8

// PointValue is one evaluated position of a QueryResponse.
type PointValue struct {
	Position Point      `json:"position"`
	Velocity [3]float64 `json:"velocity"`
	Pressure float64    `json:"pressure"`
}

// QueryResponse is the /query success body.
type QueryResponse struct {
	QueryID int64 `json:"query_id"`
	// VirtualSeconds is the query's response time on the engine's
	// virtual clock (arrival to completion).
	VirtualSeconds float64      `json:"virtual_seconds"`
	Values         []PointValue `json:"values"`
}

// kernels maps wire names to kernels; the empty name is the default.
var kernels = map[string]jaws.Kernel{
	"":          jaws.KernelLag4,
	"lag4":      jaws.KernelLag4,
	"lag6":      jaws.KernelLag6,
	"lag8":      jaws.KernelLag8,
	"trilinear": jaws.KernelTrilinear,
	"none":      jaws.KernelNone,
}

// request is one accepted request, allocated as one object: the job a
// backend is handed, its single query, the one-element slices joining
// them and the Submit argument, and the X-Jaws-Request-Id header value.
// It is never reused: a backend may keep the job, and everything reachable
// from it, for as long as it likes (see Backend.Submit).
type request struct {
	job     jaws.Job
	query   jaws.Query
	queries [1]*jaws.Query
	jobs    [1]*jaws.Job
	rid     [1]string
}

// newRequest builds the one-query batched job the serving layer submits.
func newRequest(id jaws.QueryID, rid string, kernel jaws.Kernel, in DecodedRequest) *request {
	req := &request{
		job:   jaws.Job{ID: int64(id), User: 1, Type: jaws.Batched},
		query: jaws.Query{ID: id, JobID: int64(id), User: 1, Step: in.Step, DerivSteps: in.DerivSteps, Points: in.Points, Kernel: kernel, ReqID: rid},
		rid:   [1]string{rid},
	}
	req.queries[0] = &req.query
	req.job.Queries = req.queries[:]
	req.jobs[0] = &req.job
	return req
}

// jsonContentType is the Content-Type header value of every /query answer.
// It is assigned into a response's header map, never appended to: net/http
// clones the map when the header is written, and a Set replaces the slice.
var jsonContentType = []string{"application/json"}

// timerPool holds request-deadline timers that were stopped before they
// ever fired, so their channels are empty. A fresh timer per request would
// cost three objects.
var timerPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

// putTimer stops t and puts it back in timerPool only if it had not fired.
// A timer that fired is dropped: under this module's go 1.22 timer channels
// keep their pre-Go 1.23 semantics, where a Stop that loses the race with a
// firing timer returns false before the tick reaches the channel, so no
// drain could be sure to catch it, and a late tick would end the next
// request that took the timer.
func putTimer(t *time.Timer) {
	if t.Stop() {
		timerPool.Put(t)
	}
}

// outcome is serve's verdict: a result, or an HTTP status.
type outcome struct {
	res    *jaws.QueryResult
	status int
	err    error
}

// handleQuery is POST /query: validate, gate, admit, take a slot, serve,
// respond, all on one goroutine. With request tracking on, every
// wall-clock transition of an admitted request is charged to exactly one
// ReqSpan phase: handler entry → admission is validate, the slot wait is
// queued, serve marks dispatch/execute, and Finish charges the response
// write — so the phases sum to the span's Wall by construction.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.requests.Inc()
	var rs *obs.ReqSpan
	if s.reqTrack {
		rs = obs.NewReqSpan()
	}
	t0 := time.Now()
	if s.draining.Load() {
		s.unavailable.Inc()
		http.Error(w, "server draining", http.StatusServiceUnavailable)
		return
	}

	// In-flight gate: bounds concurrent requests between accept and
	// response, including decode and queue wait.
	n := s.inflight.Add(1)
	defer func() { s.gInflight.Set(float64(s.inflight.Add(-1))) }()
	s.gInflight.Set(float64(n))
	if n > int64(s.cfg.MaxInFlight) {
		s.shedRequest(w, "", "too many requests in flight")
		return
	}

	in, err := DecodeQueryRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.rejectRequest(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
		} else {
			s.rejectRequest(w, http.StatusBadRequest, "malformed request: "+err.Error())
		}
		return
	}
	// The decoder read the body to its end; closed, it leaves net/http
	// nothing to discard before the response.
	r.Body.Close()
	kernel, ok := kernels[in.Kernel]
	if !ok {
		s.rejectRequest(w, http.StatusBadRequest, fmt.Sprintf("unknown kernel %q", in.Kernel))
		return
	}
	if in.Step < 0 || in.Step >= s.cfg.Steps {
		s.rejectRequest(w, http.StatusBadRequest,
			fmt.Sprintf("step %d outside [0, %d)", in.Step, s.cfg.Steps))
		return
	}
	if len(in.Points) == 0 {
		s.rejectRequest(w, http.StatusBadRequest, "no points")
		return
	}
	if len(in.Points) > s.cfg.MaxPoints {
		s.rejectRequest(w, http.StatusBadRequest,
			fmt.Sprintf("%d points exceed the limit of %d", len(in.Points), s.cfg.MaxPoints))
		return
	}
	if in.DerivSteps < 0 || in.DerivSteps == 1 || in.DerivSteps > MaxDerivSteps {
		s.rejectRequest(w, http.StatusBadRequest,
			fmt.Sprintf("deriv_steps %d invalid: want 0 (plain query) or 2..%d", in.DerivSteps, MaxDerivSteps))
		return
	}
	if in.DerivSteps > 1 && in.Step+in.DerivSteps > s.cfg.Steps {
		s.rejectRequest(w, http.StatusBadRequest,
			fmt.Sprintf("derivative chain [%d, %d) exceeds the stored %d steps", in.Step, in.Step+in.DerivSteps, s.cfg.Steps))
		return
	}

	// The request ends at its deadline or when its client goes away,
	// whichever comes first: a 504 either way.
	deadline := s.deadline(in.TimeoutMS)
	timer := timerPool.Get().(*time.Timer)
	timer.Reset(deadline)
	defer putTimer(timer)
	end := expiry{deadline: timer.C, gone: r.Context().Done()}

	// Validation passed: consume a query ID and derive the request ID
	// from it. The ID is returned to the client immediately (even if the
	// queue then sheds) and propagated into the engine on the query, so
	// the engine's virtual-clock span carries it (Span.Req) and
	// cmd/jawsreport can stitch both sides of the request back together.
	id := jaws.QueryID(s.nextID.Add(1))
	rid := obs.RequestID(s.cfg.ReqIDSeed, int64(id))
	req := newRequest(id, rid, kernel, in)
	w.Header()["X-Jaws-Request-Id"] = req.rid[:]
	rs.SetRequest(rid, int64(id))

	start := time.Now()
	s.acceptMu.RLock()
	if s.draining.Load() {
		s.acceptMu.RUnlock()
		s.unavailable.Inc()
		http.Error(w, "server draining", http.StatusServiceUnavailable)
		s.emitSpan(rs, http.StatusServiceUnavailable)
		return
	}
	depth := s.waiting.Add(1)
	rs.Admit(int(depth - 1))
	if depth > int64(s.cfg.QueueBound) {
		s.waiting.Add(-1)
		s.acceptMu.RUnlock()
		s.shedRequest(w, rid, "request queue full")
		s.emitSpan(rs, http.StatusTooManyRequests)
		return
	}
	s.admitted.Add(1)
	s.acceptMu.RUnlock()
	s.gQueue.Set(float64(depth))

	// Admitted: wait for a slot (blocked receivers take slots in arrival
	// order) or the request's end, whichever first.
	var out outcome
	select {
	case sl := <-s.slots:
		s.gQueue.Set(float64(s.waiting.Add(-1)))
		out = s.serve(end, sl, req, rs)
		s.slots <- sl
	case <-end.deadline:
		out = s.expiredQueued(rs)
	case <-end.gone:
		out = s.expiredQueued(rs)
	}
	s.admitted.Done()
	var status int
	switch {
	case out.res != nil:
		// The body is streamed from the result as it is encoded; only a
		// non-finite value, found before the first byte, changes the status.
		virt := (out.res.Completed - out.res.Query.Arrival).Seconds()
		lat := time.Since(start)
		w.Header()["Content-Type"] = jsonContentType
		err := WriteQueryResponse(w, int64(id), virt, out.res.Positions)
		out.res.Release() // written or refused: the backend may reuse it
		if errors.Is(err, ErrNonFinite) {
			status = http.StatusInternalServerError
			s.errcount.Inc()
			http.Error(w, "backend produced a non-finite value", status)
			break
		}
		status = http.StatusOK
		s.served.Inc()
		s.hLatency.Observe(lat.Seconds())
		s.hVirtual.Observe(virt)
	case out.status == http.StatusGatewayTimeout:
		status = http.StatusGatewayTimeout
		s.timeouts.Inc()
		http.Error(w, fmt.Sprintf("deadline exceeded after %v", deadline), http.StatusGatewayTimeout)
	default:
		status = out.status
		s.errcount.Inc()
		msg := "backend unavailable"
		if out.err != nil {
			msg = "backend failed: " + out.err.Error()
		}
		http.Error(w, msg, out.status)
	}

	// The response bytes are written: close the span (charging the write
	// phase) and fan the request out to the observers.
	s.emitSpan(rs, status)
	wall := time.Since(t0)
	if rs != nil {
		wall = rs.Wall
	}
	s.cfg.SLO.Observe(wall, status != http.StatusOK)
	if lg := s.cfg.Log; lg.Enabled() {
		lg.Info("request finished",
			"request_id", rid, "query", int64(id), "status", status,
			"wall_ms", float64(wall)/float64(time.Millisecond),
			"queue_depth", s.waiting.Load())
	}
}

// deadline is the wall-clock budget of a request asking for timeoutMS
// milliseconds: the default when it asks for none, never more than
// MaxDeadline. The comparison is made in milliseconds because the product
// overflows time.Duration from about 9.2e12 ms upward.
func (s *Server) deadline(timeoutMS int64) time.Duration {
	switch {
	case timeoutMS <= 0:
		return s.cfg.DefaultDeadline
	case timeoutMS <= int64(s.cfg.MaxDeadline/time.Millisecond):
		return time.Duration(timeoutMS) * time.Millisecond
	default:
		return s.cfg.MaxDeadline
	}
}

// expiredQueued accounts for a request that ended while it waited for a
// slot.
func (s *Server) expiredQueued(rs *obs.ReqSpan) outcome {
	s.gQueue.Set(float64(s.waiting.Add(-1)))
	rs.Mark(obs.ReqQueued)
	return outcome{status: http.StatusGatewayTimeout}
}

// emitSpan finishes rs with the HTTP status the request was answered
// with and fans it out to the span aggregator and the tracer. Nil rs
// (request tracking off) is a no-op.
func (s *Server) emitSpan(rs *obs.ReqSpan, status int) {
	if rs == nil {
		return
	}
	rs.Finish(status)
	s.cfg.ReqSpans.Add(*rs)
	s.cfg.Trace.ReqSpanDone(*rs)
}

// shedRequest answers 429 with the configured Retry-After hint. rid is
// the request ID when one was already assigned ("" for the in-flight
// gate, which sheds before validation).
func (s *Server) shedRequest(w http.ResponseWriter, rid, msg string) {
	s.shed.Inc()
	secs := int(s.cfg.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	http.Error(w, msg, http.StatusTooManyRequests)
	if lg := s.cfg.Log; lg.Enabled() {
		lg.Warn("request shed", "request_id", rid, "reason", msg)
	}
}

// rejectRequest answers a 4xx validation failure. Rejections happen
// before a request ID is assigned, so their log lines carry an empty
// request_id.
func (s *Server) rejectRequest(w http.ResponseWriter, code int, msg string) {
	s.rejected.Inc()
	http.Error(w, msg, code)
	if lg := s.cfg.Log; lg.Enabled() {
		lg.Warn("request rejected", "request_id", "", "status", code, "reason", msg)
	}
}

// handleHealthz is the liveness probe: 200 while serving, 503 when
// draining or a backend died.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if err := s.healthy(); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// varz is the /varz body: the admission-control configuration plus the
// live Stats snapshot.
type varz struct {
	UptimeSeconds   float64 `json:"uptime_seconds"`
	Backends        int     `json:"backends"`
	QueueBound      int     `json:"queue_bound"`
	Workers         int     `json:"workers"`
	MaxInFlight     int     `json:"max_in_flight"`
	MaxBodyBytes    int64   `json:"max_body_bytes"`
	MaxPoints       int     `json:"max_points"`
	Steps           int     `json:"steps"`
	DefaultDeadline string  `json:"default_deadline"`
	MaxDeadline     string  `json:"max_deadline"`
	// TailPolicy is the spec decorating the backends' schedulers; omitted
	// when the nodes run undecorated.
	TailPolicy string `json:"tail_policy,omitempty"`
	Stats      Stats  `json:"stats"`
	// SLO is the rolling-window objective snapshot; omitted when no
	// tracker is configured.
	SLO *obs.SLOSnapshot `json:"slo,omitempty"`
	// Sched is the decision flight recorder's live aggregate; omitted
	// when no recorder is configured.
	Sched *schedVarz `json:"sched,omitempty"`
}

// schedVarz is the /varz scheduler section: the flight recorder's
// cumulative aggregates plus derived rates and the tracer's drop total.
type schedVarz struct {
	obs.FlightSnapshot
	// DecisionsPerSec is the wall-clock decision rate since the server
	// started (the engines decide on a virtual clock; this is the
	// observable recording rate).
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	// TraceDropped counts the trace lines the sink lost (also exported
	// as jaws_trace_dropped_total, and the trace footer's sink_dropped).
	TraceDropped int64 `json:"trace_dropped"`
}

// handleVarz exposes configuration and counters as JSON.
func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	var slo *obs.SLOSnapshot
	if s.cfg.SLO != nil {
		snap := s.cfg.SLO.Snapshot()
		slo = &snap
	}
	var sv *schedVarz
	if s.cfg.Flight.Enabled() {
		sv = &schedVarz{
			FlightSnapshot: s.cfg.Flight.Snapshot(),
			TraceDropped:   obs.FoldTraceDropped(s.cfg.Reg, s.cfg.Trace),
		}
		if up := time.Since(s.start).Seconds(); up > 0 {
			sv.DecisionsPerSec = float64(sv.Decisions) / up
		}
	}
	writeJSON(w, http.StatusOK, varz{
		SLO:             slo,
		Sched:           sv,
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Backends:        len(s.backends),
		QueueBound:      s.cfg.QueueBound,
		Workers:         s.cfg.Workers,
		MaxInFlight:     s.cfg.MaxInFlight,
		MaxBodyBytes:    s.cfg.MaxBodyBytes,
		MaxPoints:       s.cfg.MaxPoints,
		Steps:           s.cfg.Steps,
		DefaultDeadline: s.cfg.DefaultDeadline.String(),
		MaxDeadline:     s.cfg.MaxDeadline.String(),
		TailPolicy:      s.cfg.TailPolicy,
		Stats:           s.Stats(),
	})
}

// handleMetrics is the Prometheus-style scrape endpoint over the
// server's registry (shared with the backends when the caller passed
// one registry to both).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Refresh the SLO gauges from the rolling window at scrape time so
	// the exposition always reflects the current window, not the last
	// request.
	if s.cfg.SLO != nil {
		snap := s.cfg.SLO.Snapshot()
		s.gSLOCompliance.Set(snap.Compliance)
		s.gSLOBurn.Set(snap.BurnRate)
		s.gSLOBudget.Set(snap.BudgetRemaining)
		s.gSLOGood.Set(float64(snap.Good))
		s.gSLOBad.Set(float64(snap.Bad))
	}
	obs.FoldTraceDropped(s.cfg.Reg, s.cfg.Trace)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.cfg.Reg.WriteText(w)
}

// writeJSON encodes v with a trailing newline.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
