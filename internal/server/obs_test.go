package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"jaws"
	"jaws/internal/obs"
)

// obsBundle is the full observability wiring a test server can run with.
type obsBundle struct {
	trace *obs.Tracer
	sink  *traceSink
	spans *obs.ReqSpanAgg
	logs  *strings.Builder
	slo   *obs.SLOTracker
}

func withObs(seed int64) (*obsBundle, func(*Config)) {
	sink := &traceSink{}
	b := &obsBundle{
		trace: obs.NewTracer(sink),
		sink:  sink,
		spans: obs.NewReqSpanAgg(),
		logs:  &strings.Builder{},
		slo:   obs.NewSLOTracker(5*time.Second, 0.99, time.Minute),
	}
	return b, func(c *Config) {
		c.Trace = b.trace
		c.ReqSpans = b.spans
		c.Log = obs.NewLogger(b.logs)
		c.SLO = b.slo
		c.ReqIDSeed = seed
	}
}

// traceSink is a trace sink a test reads while handlers may still write
// to it. While failing is set, every write fails and lands nothing.
type traceSink struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	failing bool
}

func (s *traceSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failing {
		return 0, errors.New("disk full")
	}
	return s.buf.Write(p)
}

func (s *traceSink) setFailing(v bool) {
	s.mu.Lock()
	s.failing = v
	s.mu.Unlock()
}

// scan flushes tr and feeds every line the sink holds, the footer
// included, through the reader jawsreport uses.
func (s *traceSink) scan(t *testing.T, tr *obs.Tracer, fn func(*obs.Event)) {
	t.Helper()
	tr.Flush()
	s.mu.Lock()
	data := bytes.Clone(s.buf.Bytes())
	s.mu.Unlock()
	if err := obs.ScanTrace(bytes.NewReader(data), func(ev *obs.Event) error { fn(ev); return nil }); err != nil {
		t.Fatal(err)
	}
}

// events returns the events the sink holds.
func (s *traceSink) events(t *testing.T, tr *obs.Tracer) []obs.Event {
	t.Helper()
	var evs []obs.Event
	s.scan(t, tr, func(ev *obs.Event) { evs = append(evs, *ev) })
	return evs
}

// TestRequestIDHeaderDeterministic pins the propagated ID: the response
// header carries obs.RequestID(seed, n) for the n-th accepted request.
func TestRequestIDHeaderDeterministic(t *testing.T) {
	_, mutate := withObs(7)
	_, ts := newTestServer(t, []Backend{newFakeBackend()}, mutate)
	for n := int64(1); n <= 3; n++ {
		resp := postQuery(t, ts.URL, okBody)
		resp.Body.Close()
		if got, want := resp.Header.Get("X-Jaws-Request-Id"), obs.RequestID(7, n); got != want {
			t.Fatalf("request %d: X-Jaws-Request-Id = %q, want %q", n, got, want)
		}
	}
}

// TestRequestSpanLifecycle checks a served request produces one span with
// the attribution invariant intact, a matching trace event, an SLO
// observation, and a structured log line carrying the request ID.
func TestRequestSpanLifecycle(t *testing.T) {
	b, mutate := withObs(1)
	_, ts := newTestServer(t, []Backend{newFakeBackend()}, mutate)
	resp := postQuery(t, ts.URL, okBody)
	resp.Body.Close()
	rid := resp.Header.Get("X-Jaws-Request-Id")

	spans := b.spans.Spans()
	if len(spans) != 1 {
		t.Fatalf("aggregator holds %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.ID != rid || sp.Query != 1 || sp.Status != http.StatusOK {
		t.Fatalf("span %+v does not match request %s", sp, rid)
	}
	if sp.PhaseSum() != sp.Wall || sp.Wall <= 0 {
		t.Fatalf("attribution broken: phases %v != wall %v", sp.PhaseSum(), sp.Wall)
	}

	var traced int
	for _, ev := range b.sink.events(t, b.trace) {
		if ev.Kind == obs.KindReqSpan {
			traced++
			if ev.Req.ID != rid {
				t.Fatalf("trace event carries ID %q, want %q", ev.Req.ID, rid)
			}
		}
	}
	if traced != 1 {
		t.Fatalf("tracer saw %d reqspan events, want 1", traced)
	}

	if snap := b.slo.Snapshot(); snap.Good != 1 || snap.Bad != 0 {
		t.Fatalf("slo did not observe the request: %+v", snap)
	}
	logLine := b.logs.String()
	if !strings.Contains(logLine, rid) || !strings.Contains(logLine, `"msg":"request finished"`) {
		t.Fatalf("log line missing request context: %s", logLine)
	}
}

// TestRequestSpanConservationConcurrent hammers the traced server from
// many clients (run under -race by make race-obs) and checks every span
// individually conserves its wall clock and IDs stay unique.
func TestRequestSpanConservationConcurrent(t *testing.T) {
	b, mutate := withObs(3)
	_, ts := newTestServer(t, []Backend{newFakeBackend()}, func(c *Config) {
		mutate(c)
		c.Workers = 4
		c.QueueBound = 64
		c.MaxInFlight = 1024
	})
	const clients, per = 8, 5
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				resp := postQuery(t, ts.URL, okBody)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	spans := b.spans.Spans()
	if len(spans) != clients*per {
		t.Fatalf("recorded %d spans, want %d", len(spans), clients*per)
	}
	seen := make(map[string]bool, len(spans))
	for _, sp := range spans {
		if sp.PhaseSum() != sp.Wall {
			t.Fatalf("span %s: phases %v != wall %v", sp.ID, sp.PhaseSum(), sp.Wall)
		}
		if seen[sp.ID] {
			t.Fatalf("duplicate request ID %s", sp.ID)
		}
		seen[sp.ID] = true
	}
	sum := obs.SummarizeReqSpans(spans, 3)
	if p := sum.Phases; sum.OK != clients*per || p.Validate+p.Queued+p.Dispatch+p.Execute+p.Write != sum.TotalWall {
		t.Fatalf("summary lost time or requests: %+v", sum)
	}
}

// TestShedCarriesRequestID: a queue-full shed happens after ID
// assignment, so the 429 still returns the header and the span records
// the shed status.
func TestShedCarriesRequestID(t *testing.T) {
	fake := newFakeBackend()
	fake.hold = true
	b, mutate := withObs(5)
	srv, ts := newTestServer(t, []Backend{fake}, func(c *Config) {
		mutate(c)
		c.Workers = 1
		c.QueueBound = 1
	})
	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp := postQuery(t, ts.URL, okBody)
			resp.Body.Close()
			done <- resp.StatusCode
		}()
		if i == 0 {
			waitFor(t, "worker to hold r1", func() bool { return fake.submittedCount() == 1 })
		} else {
			waitFor(t, "queue to fill", func() bool { return srv.Stats().QueueDepth == 1 })
		}
	}
	resp := postQuery(t, ts.URL, okBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("X-Jaws-Request-Id") == "" {
		t.Fatal("shed response lost its request ID")
	}
	fake.release()
	<-done
	<-done

	var shedSpans int
	for _, sp := range b.spans.Spans() {
		if sp.Status == http.StatusTooManyRequests {
			shedSpans++
			if sp.PhaseSum() != sp.Wall {
				t.Fatalf("shed span broke conservation: %+v", sp)
			}
		}
	}
	if shedSpans != 1 {
		t.Fatalf("recorded %d shed spans, want 1", shedSpans)
	}
	if !strings.Contains(b.logs.String(), "request shed") {
		t.Fatal("shed not logged")
	}
}

// TestEngineSpanCarriesRequestID runs a real session behind the server
// and checks the engine's virtual-clock span is stamped with the HTTP
// request ID — the stitching key jawsreport joins on.
func TestEngineSpanCarriesRequestID(t *testing.T) {
	sink := &traceSink{}
	trace := obs.NewTracer(sink)
	sess, err := jaws.OpenSession(jaws.Config{
		Space:      jaws.Space{GridSide: 64, AtomSide: 32},
		Steps:      4,
		CacheAtoms: 16,
		Obs:        &jaws.Obs{Trace: trace},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, []Backend{sess}, func(c *Config) {
		c.Trace = trace
		c.ReqIDSeed = 11
	})
	resp := postQuery(t, ts.URL, okBody)
	resp.Body.Close()
	rid := resp.Header.Get("X-Jaws-Request-Id")
	if rid == "" {
		t.Fatal("no request ID returned")
	}

	var engineSpan, reqSpan bool
	for _, ev := range sink.events(t, trace) {
		switch ev.Kind {
		case obs.KindSpan:
			if ev.Span.Req == rid {
				engineSpan = true
			}
		case obs.KindReqSpan:
			if ev.Req.ID == rid {
				reqSpan = true
			}
		}
	}
	if !engineSpan {
		t.Errorf("no engine span carries request ID %s", rid)
	}
	if !reqSpan {
		t.Errorf("no request span carries request ID %s", rid)
	}
}

// TestSLOExposition checks /varz carries the SLO snapshot and /metrics
// the jaws_slo_* gauges with help text.
func TestSLOExposition(t *testing.T) {
	_, mutate := withObs(1)
	_, ts := newTestServer(t, []Backend{newFakeBackend()}, mutate)
	resp := postQuery(t, ts.URL, okBody)
	resp.Body.Close()

	vresp, err := http.Get(ts.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	defer vresp.Body.Close()
	var v varz
	if err := json.NewDecoder(vresp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.SLO == nil || v.SLO.Good != 1 || v.SLO.Compliance != 1 {
		t.Fatalf("varz slo = %+v, want 1 good observation", v.SLO)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	for _, want := range []string{
		"jaws_slo_compliance 1",
		"jaws_slo_good 1",
		"jaws_slo_bad 0",
		"# HELP jaws_slo_burn_rate",
		"# HELP jaws_server_requests_total",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestUntracedPathUnchanged: with no observers configured the serving
// path must not allocate spans or emit headers differently than before —
// the header is still set (IDs cost nothing) but no spans are recorded.
func TestUntracedPathUnchanged(t *testing.T) {
	srv, ts := newTestServer(t, []Backend{newFakeBackend()}, nil)
	resp := postQuery(t, ts.URL, okBody)
	resp.Body.Close()
	if resp.Header.Get("X-Jaws-Request-Id") == "" {
		t.Fatal("request ID header must be set even without tracing")
	}
	if srv.reqTrack {
		t.Fatal("reqTrack on without a tracer or aggregator")
	}
}
