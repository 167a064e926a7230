package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"jaws"
	"jaws/internal/engine"
	"jaws/internal/obs"
)

// fakeBackend is a fully controllable Backend: by default it completes
// every submitted query instantly; with hold set it sits on them until
// release, and die simulates a crash-faulted session.
type fakeBackend struct {
	results chan *jaws.QueryResult

	// eval, when set, makes results carry values: one per query point, in
	// input order. Set before the first Submit.
	eval func(jaws.Position) [4]float64

	mu        sync.Mutex
	submitted []*jaws.Job
	hold      bool
	err       error
	dead      bool
	closeOnce sync.Once
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{results: make(chan *jaws.QueryResult, 1024)}
}

func (f *fakeBackend) Submit(jobs ...*jaws.Job) error {
	f.mu.Lock()
	if f.dead {
		f.mu.Unlock()
		return errors.New("session closed")
	}
	f.submitted = append(f.submitted, jobs...)
	hold := f.hold
	f.mu.Unlock()
	if !hold {
		f.complete(jobs)
	}
	return nil
}

func (f *fakeBackend) complete(jobs []*jaws.Job) {
	for _, j := range jobs {
		for _, q := range j.Queries {
			r := &jaws.QueryResult{Query: q, Completed: q.Arrival + time.Second}
			if f.eval != nil {
				r.Positions = make([]engine.PointSample, len(q.Points))
				for i, p := range q.Points {
					r.Positions[i] = sample(p.X, p.Y, p.Z, f.eval(p))
				}
			}
			f.results <- r
		}
	}
}

// release completes everything held so far and stops holding.
func (f *fakeBackend) release() {
	f.mu.Lock()
	f.hold = false
	held := append([]*jaws.Job(nil), f.submitted...)
	f.submitted = f.submitted[:0]
	f.mu.Unlock()
	f.complete(held)
}

// die simulates an internal/fault node crash: the result stream ends and
// further submissions fail.
func (f *fakeBackend) die(err error) {
	f.mu.Lock()
	f.dead = true
	f.err = err
	f.mu.Unlock()
	f.closeOnce.Do(func() { close(f.results) })
}

func (f *fakeBackend) Results() <-chan *jaws.QueryResult { return f.results }

func (f *fakeBackend) Close() *jaws.Report {
	f.mu.Lock()
	dead := f.dead
	n := len(f.submitted)
	f.mu.Unlock()
	f.closeOnce.Do(func() { close(f.results) })
	if dead {
		return nil
	}
	return &jaws.Report{Completed: n}
}

func (f *fakeBackend) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

func (f *fakeBackend) submittedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.submitted)
}

// newTestServer builds a server over the given backends with small, test
// friendly bounds; mutate tweaks the config before New.
func newTestServer(t *testing.T, backends []Backend, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Backends:        backends,
		QueueBound:      8,
		Workers:         2,
		MaxBodyBytes:    1 << 16,
		MaxPoints:       64,
		Steps:           4,
		DefaultDeadline: 10 * time.Second,
		RetryAfter:      2 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Shutdown()
		ts.Close()
	})
	return srv, ts
}

func postQuery(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

const okBody = `{"step":1,"points":[{"x":1,"y":2,"z":3}]}`

func TestNewRequiresBackends(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no backends accepted")
	}
}

func TestQueryHappyPathOnFake(t *testing.T) {
	fake := newFakeBackend()
	srv, ts := newTestServer(t, []Backend{fake}, nil)
	resp := postQuery(t, ts.URL, okBody)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.QueryID != 1 {
		t.Errorf("query_id = %d, want 1", out.QueryID)
	}
	if out.VirtualSeconds != 1 { // fake completes at arrival+1s
		t.Errorf("virtual_seconds = %g, want 1", out.VirtualSeconds)
	}
	if st := srv.Stats(); st.Served != 1 || st.Requests != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestDeadlineExceeded(t *testing.T) {
	fake := newFakeBackend()
	fake.hold = true
	srv, ts := newTestServer(t, []Backend{fake}, nil)
	resp := postQuery(t, ts.URL, `{"step":1,"points":[{"x":1,"y":2,"z":3}],"timeout_ms":50}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if st := srv.Stats(); st.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", st.Timeouts)
	}
	// The engine eventually completes the abandoned query; the server
	// must drop it and count it as late, not deliver or crash.
	fake.release()
	waitFor(t, "late result accounting", func() bool { return srv.Stats().LateResults == 1 })
}

// lateBackend is a real session that answers late: every result waits for
// a token on gate before it is passed on, and is noted on the way.
type lateBackend struct {
	*jaws.Session
	out  chan *jaws.QueryResult
	gate chan struct{}

	mu     sync.Mutex
	passed []*jaws.QueryResult
}

func (b *lateBackend) Results() <-chan *jaws.QueryResult { return b.out }

func (b *lateBackend) pump() {
	defer close(b.out)
	for r := range b.Session.Results() {
		<-b.gate
		b.mu.Lock()
		b.passed = append(b.passed, r)
		b.mu.Unlock()
		b.out <- r
	}
}

// TestLateResultReleased: a request that times out while its query is
// still in the engine is answered 504 and its handler is gone; when the
// result arrives after all, drain — the only goroutine that ever sees it —
// counts it and releases it, so the session hands the same result to the
// next query. Under the race detector this is also the proof that nothing
// else touches a late result.
func TestLateResultReleased(t *testing.T) {
	sess, err := jaws.OpenSession(jaws.Config{
		Space:      jaws.Space{GridSide: 64, AtomSide: 32},
		Steps:      4,
		Seed:       11,
		CacheAtoms: 16,
		Compute:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	be := &lateBackend{Session: sess, out: make(chan *jaws.QueryResult), gate: make(chan struct{}, 1)}
	go be.pump()
	srv, ts := newTestServer(t, []Backend{be}, nil)

	resp := postQuery(t, ts.URL, `{"step":1,"points":[{"x":1,"y":2,"z":3}],"timeout_ms":50}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	be.gate <- struct{}{} // the answer, late
	waitFor(t, "late result accounting", func() bool { return srv.Stats().LateResults == 1 })

	be.gate <- struct{}{} // the next answer passes at once
	resp = postQuery(t, ts.URL, `{"step":2,"points":[{"x":3,"y":2,"z":1},{"x":3,"y":2,"z":2}]}`)
	defer resp.Body.Close()
	var out QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, error %v", resp.StatusCode, err)
	}
	if len(out.Values) != 2 || out.Values[0].Position != (Point{X: 3, Y: 2, Z: 1}) && out.Values[0].Position != (Point{X: 3, Y: 2, Z: 2}) {
		t.Fatalf("the second request was answered %+v", out.Values)
	}
	be.mu.Lock()
	defer be.mu.Unlock()
	if len(be.passed) != 2 || be.passed[0] != be.passed[1] {
		t.Fatalf("results passed: %p; want the late result released and handed to the next query", be.passed)
	}
}

// deadlineBackend answers every query at the instant its request's deadline
// passes: Submit cancels the request in hand and completes it at once, so
// the handler comes to its select with the deadline ready and the result in
// drain's hands or already through them.
type deadlineBackend struct {
	*fakeBackend
	cancel func() // the request in hand; requests come one at a time
}

func (b *deadlineBackend) Submit(jobs ...*jaws.Job) error {
	b.cancel()
	err := b.fakeBackend.Submit(jobs...)
	runtime.Gosched() // drain's turn: more often than not it gets the result through first
	return err
}

// TestResultAtDeadlineAccounted: when a result and the deadline are ready
// together, whichever the handler's select takes, the request gets one
// answer and the result one reader — the handler's response (200), or,
// once the handler gave up (504), drain or the handler's abandon when drain
// had taken the channel first; a result in that last case used to stay in
// the channel, neither released nor counted.
func TestResultAtDeadlineAccounted(t *testing.T) {
	be := &deadlineBackend{fakeBackend: newFakeBackend()}
	srv, _ := newTestServer(t, []Backend{be}, func(c *Config) { c.Workers = 1 })
	const requests = 1000
	for i := 0; i < requests; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		be.cancel = cancel
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(okBody)).WithContext(ctx)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		cancel()
		if rec.Code != http.StatusOK && rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("request %d: status %d, want 200 or 504", i, rec.Code)
		}
	}
	st := srv.Stats()
	if st.Requests != requests || st.Served+st.Timeouts+st.Errors != requests {
		t.Fatalf("%d requests: %d served + %d timeouts + %d errors", st.Requests, st.Served, st.Timeouts, st.Errors)
	}
	if st.Timeouts == 0 {
		t.Fatal("no request timed out: the deadline never won")
	}
	// Every query produced a result; the served ones were read by handlers.
	late := requests - st.Served
	waitFor(t, fmt.Sprintf("%d late results, one per request not served (%d)", late, st.Served),
		func() bool { return srv.Stats().LateResults == late })
}

// TestFiredTimerNotReused pins putTimer's rule: a deadline timer that fired
// never goes back to the pool. Its tick may still be on its way to the
// channel when Stop returns, and would end the next request that took the
// timer at once.
func TestFiredTimerNotReused(t *testing.T) {
	fired := timerPool.Get().(*time.Timer)
	fired.Reset(time.Nanosecond)
	time.Sleep(time.Millisecond)
	putTimer(fired)
	var taken []*time.Timer
	for range 8 {
		got := timerPool.Get().(*time.Timer)
		if got == fired {
			t.Fatal("a timer that fired was put back in the pool")
		}
		taken = append(taken, got)
	}
	for _, tm := range taken {
		timerPool.Put(tm)
	}
}

func TestQueueFullShedsWithRetryAfter(t *testing.T) {
	fake := newFakeBackend()
	fake.hold = true
	srv, ts := newTestServer(t, []Backend{fake}, func(c *Config) {
		c.Workers = 1
		c.QueueBound = 1
	})

	// r1 holds the single serving slot, r2 is the one request let wait.
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

	// r3 must be shed immediately.
	resp := postQuery(t, ts.URL, okBody)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", got)
	}
	if st := srv.Stats(); st.Shed != 1 {
		t.Errorf("shed = %d, want 1", st.Shed)
	}

	fake.release()
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Errorf("held request %d finished with %d, want 200", i, code)
		}
	}
}

// postAsync posts body from a goroutine and delivers the response status
// (-1 when the request failed).
func postAsync(t *testing.T, url, body string) <-chan int {
	code := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			code <- -1
			return
		}
		resp.Body.Close()
		code <- resp.StatusCode
	}()
	return code
}

// timeoutBody is okBody with a deadline of the given milliseconds.
func timeoutBody(ms int) string {
	return fmt.Sprintf(`{"step":1,"points":[{"x":1,"y":2,"z":3}],"timeout_ms":%d}`, ms)
}

// TestQueuedDeadlineAnsweredAtDeadline: a request whose deadline passes
// while it waits for a slot is answered 504 at its deadline, while the
// request holding the slot is still in the backend — not once the slot
// frees.
func TestQueuedDeadlineAnsweredAtDeadline(t *testing.T) {
	fake := newFakeBackend()
	fake.hold = true
	srv, ts := newTestServer(t, []Backend{fake}, func(c *Config) {
		c.Workers = 1
		c.QueueBound = 1
	})
	t.Cleanup(fake.release) // before Shutdown, should r1 still be held

	held := postAsync(t, ts.URL, okBody)
	waitFor(t, "r1 to hold the slot", func() bool { return fake.submittedCount() == 1 })
	queued := postAsync(t, ts.URL, timeoutBody(50))
	select {
	case code := <-queued:
		if code != http.StatusGatewayTimeout {
			t.Fatalf("queued request answered %d, want 504", code)
		}
	case <-time.After(time.Second):
		t.Fatal("queued request with a 50 ms deadline unanswered after 1 s")
	}
	select {
	case code := <-held:
		t.Fatalf("r1 answered %d while its query was held", code)
	default:
	}
	if st := srv.Stats(); st.Timeouts != 1 || st.QueueDepth != 0 {
		t.Errorf("stats %+v, want 1 timeout and nothing waiting", st)
	}
	fake.release()
	if code := <-held; code != http.StatusOK {
		t.Errorf("r1 finished with %d, want 200", code)
	}
}

// TestSlotsConserved: every way a request can end — served, timed out
// waiting for a slot or while executing, refused by Submit, cut off by its
// backend's death — hands its slot back empty, so after the drain every
// slot is free and nothing waits.
func TestSlotsConserved(t *testing.T) {
	fake := newFakeBackend()
	srv, ts := newTestServer(t, []Backend{fake}, func(c *Config) {
		c.Workers = 2
		c.QueueBound = 4
	})
	expect := func(what string, code <-chan int, want int) {
		t.Helper()
		if got := <-code; got != want {
			t.Errorf("%s: status %d, want %d", what, got, want)
		}
	}
	hold := func() {
		fake.mu.Lock()
		fake.hold = true
		fake.mu.Unlock()
	}

	// Two requests time out in the backend with both slots held, a third
	// while it waits behind them.
	hold()
	executing := []<-chan int{postAsync(t, ts.URL, timeoutBody(300)), postAsync(t, ts.URL, timeoutBody(300))}
	waitFor(t, "both slots held", func() bool { return fake.submittedCount() == 2 })
	expect("deadline while waiting", postAsync(t, ts.URL, timeoutBody(50)), http.StatusGatewayTimeout)
	for _, code := range executing {
		expect("deadline while executing", code, http.StatusGatewayTimeout)
	}
	fake.release()
	waitFor(t, "late results", func() bool { return srv.Stats().LateResults == 2 })

	expect("served", postAsync(t, ts.URL, okBody), http.StatusOK)

	// One request is cut off by the backend's death (the served request is
	// still on the fake's list); Submit refuses the next.
	hold()
	dying := postAsync(t, ts.URL, okBody)
	waitFor(t, "request in the backend", func() bool { return fake.submittedCount() == 2 })
	fake.die(errors.New("node crashed"))
	expect("backend death", dying, http.StatusBadGateway)
	expect("Submit error", postAsync(t, ts.URL, okBody), http.StatusBadGateway)

	checkSlotsFree(t, srv)
	if st := srv.Stats(); st.QueueDepth != 0 || st.Served != 1 || st.Timeouts != 3 || st.Errors != 2 {
		t.Errorf("stats %+v, want nothing waiting, 1 served, 3 timeouts, 2 errors", st)
	}
}

// checkSlotsFree drains srv and checks that every slot came back, empty.
func checkSlotsFree(t *testing.T, srv *Server) {
	t.Helper()
	srv.Shutdown()
	if n := len(srv.slots); n != srv.cfg.Workers {
		t.Errorf("%d free slots after the drain, want %d", n, srv.cfg.Workers)
	}
	for i := 0; i < srv.cfg.Workers; i++ {
		if sl := <-srv.slots; len(sl) != 0 {
			t.Errorf("slot %d returned with %d results in its channel", i, len(sl))
		}
	}
}

// TestClientGoneWhileQueued: a client whose connection closes while its
// request waits for the only slot ends the request then — one timeout, not
// a wait until its deadline or the slot — and the slots come back whole.
func TestClientGoneWhileQueued(t *testing.T) {
	fake := newFakeBackend()
	fake.hold = true
	srv, ts := newTestServer(t, []Backend{fake}, func(c *Config) {
		c.Workers = 1
		c.QueueBound = 1
		c.DefaultDeadline = time.Minute
	})
	held := postAsync(t, ts.URL, okBody)
	waitFor(t, "r1 to hold the slot", func() bool { return fake.submittedCount() == 1 })

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "POST /query HTTP/1.1\r\nHost: jaws\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(okBody), okBody)
	waitFor(t, "r2 to wait for the slot", func() bool { return srv.Stats().QueueDepth == 1 })
	conn.Close()
	waitFor(t, "r2 to end with its client", func() bool {
		st := srv.Stats()
		return st.Timeouts == 1 && st.QueueDepth == 0
	})

	fake.release()
	if code := <-held; code != http.StatusOK {
		t.Errorf("r1 finished with %d, want 200", code)
	}
	checkSlotsFree(t, srv)
	if st := srv.Stats(); st.Served != 1 || st.Timeouts != 1 || st.Errors != 0 || st.LateResults != 0 {
		t.Errorf("stats %+v, want 1 served and 1 timeout", st)
	}
}

// recordingBackend keeps every job it is handed, as the benchmark's timing
// wrapper does to replay the queries after the server stopped.
type recordingBackend struct {
	Backend
	mu   sync.Mutex
	kept []*jaws.Job
}

func (b *recordingBackend) Submit(jobs ...*jaws.Job) error {
	b.mu.Lock()
	b.kept = append(b.kept, jobs...)
	b.mu.Unlock()
	return b.Backend.Submit(jobs...)
}

// TestSubmittedJobsStayIntact pins the ownership rule of Backend.Submit:
// nothing reachable from a submitted job is reused. Requests that end every
// way a request can — served, timed out waiting or executing, canceled by
// their client, cut off by the backend's death, refused by Submit — each
// carry their own step, kernel and points; afterwards every job a recording
// backend kept still holds its own query, as decoded from its own body.
func TestSubmittedJobsStayIntact(t *testing.T) {
	fake := newFakeBackend()
	rec := &recordingBackend{Backend: fake}
	const seed = 5
	srv, ts := newTestServer(t, []Backend{rec}, func(c *Config) {
		c.Workers = 1
		c.QueueBound = 2
		c.ReqIDSeed = seed
	})
	hold := func() {
		fake.mu.Lock()
		fake.hold = true
		fake.mu.Unlock()
	}

	// Request i is tagged by its first point's x; its step, kernel and
	// point count vary with i.
	wire := []string{"lag4", "lag6", "lag8", "trilinear", "none", ""}
	var sent []QueryRequest
	body := func(timeoutMS int64) string {
		i := len(sent)
		in := QueryRequest{Step: i % 4, Kernel: wire[i%len(wire)], TimeoutMS: timeoutMS}
		for p := 0; p <= i%5; p++ {
			in.Points = append(in.Points, Point{X: float64(i), Y: float64(p) / 8, Z: float64(i*p) / 16})
		}
		sent = append(sent, in)
		b, _ := json.Marshal(in)
		return string(b)
	}
	expect := func(what string, code <-chan int, want int) {
		t.Helper()
		if got := <-code; got != want {
			t.Errorf("%s: status %d, want %d", what, got, want)
		}
	}
	submitted := func(n int) func() bool { return func() bool { return fake.submittedCount() == n } }

	// One request times out in the backend, one behind it waiting for the
	// slot, and one is canceled by its client in the backend; their results
	// come late.
	hold()
	executing := postAsync(t, ts.URL, body(200))
	waitFor(t, "a request in the backend", submitted(1))
	expect("deadline while waiting", postAsync(t, ts.URL, body(20)), http.StatusGatewayTimeout)
	expect("deadline while executing", executing, http.StatusGatewayTimeout)
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", strings.NewReader(body(0)))
	canceled := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		canceled <- err
	}()
	waitFor(t, "the client's request in the backend", submitted(2))
	cancel()
	if err := <-canceled; !errors.Is(err, context.Canceled) {
		t.Errorf("canceled request: %v, want context.Canceled", err)
	}
	waitFor(t, "the canceled request's timeout", func() bool { return srv.Stats().Timeouts == 3 })
	fake.release()
	waitFor(t, "late results", func() bool { return srv.Stats().LateResults == 2 })

	for i := 0; i < 5; i++ {
		expect("served", postAsync(t, ts.URL, body(0)), http.StatusOK)
	}

	// The backend dies under one request; Submit refuses the rest.
	hold()
	dying := postAsync(t, ts.URL, body(0))
	waitFor(t, "a request in the backend", submitted(6))
	fake.die(errors.New("node crashed"))
	expect("backend death", dying, http.StatusBadGateway)
	for i := 0; i < 3; i++ {
		expect("Submit error", postAsync(t, ts.URL, body(0)), http.StatusBadGateway)
	}
	srv.Shutdown()

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if want := len(sent) - 1; len(rec.kept) != want { // all but the one that timed out waiting
		t.Fatalf("backend kept %d jobs, want %d", len(rec.kept), want)
	}
	seen := make(map[jaws.QueryID]bool)
	for _, j := range rec.kept {
		if len(j.Queries) != 1 {
			t.Fatalf("job %d carries %d queries, want 1", j.ID, len(j.Queries))
		}
		q := j.Queries[0]
		if q.JobID != j.ID || jaws.QueryID(j.ID) != q.ID || seen[q.ID] {
			t.Errorf("job %d holds query %d of job %d (seen before: %v)", j.ID, q.ID, q.JobID, seen[q.ID])
		}
		seen[q.ID] = true
		if q.ReqID != obs.RequestID(seed, int64(q.ID)) {
			t.Errorf("query %d carries request ID %q, want %q", q.ID, q.ReqID, obs.RequestID(seed, int64(q.ID)))
		}
		if len(q.Points) == 0 || q.Points[0].X < 0 || int(q.Points[0].X) >= len(sent) {
			t.Fatalf("query %d has points %v, which no request sent", q.ID, q.Points)
		}
		in := sent[int(q.Points[0].X)]
		if q.Step != in.Step || q.Kernel != kernels[in.Kernel] || len(q.Points) != len(in.Points) {
			t.Errorf("query %d: step %d, kernel %v, %d points; its request sent step %d, kernel %q, %d points",
				q.ID, q.Step, q.Kernel, len(q.Points), in.Step, in.Kernel, len(in.Points))
			continue
		}
		for p, pt := range in.Points {
			if q.Points[p] != jaws.Position(pt) {
				t.Errorf("query %d point %d = %v, its request sent %v", q.ID, p, q.Points[p], pt)
			}
		}
	}
}

func TestInFlightGateSheds(t *testing.T) {
	fake := newFakeBackend()
	fake.hold = true
	srv, ts := newTestServer(t, []Backend{fake}, func(c *Config) { c.MaxInFlight = 1 })

	done := make(chan int, 1)
	go func() {
		resp := postQuery(t, ts.URL, okBody)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	waitFor(t, "first request in flight", func() bool { return fake.submittedCount() == 1 })

	resp := postQuery(t, ts.URL, okBody)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if st := srv.Stats(); st.Shed != 1 {
		t.Errorf("shed = %d, want 1", st.Shed)
	}
	fake.release()
	if code := <-done; code != http.StatusOK {
		t.Errorf("gated request finished with %d, want 200", code)
	}
	_ = srv
}

func TestBackendDeathFailsWaitersAndHealth(t *testing.T) {
	fake := newFakeBackend()
	fake.hold = true
	srv, ts := newTestServer(t, []Backend{fake}, nil)

	done := make(chan int, 1)
	go func() {
		resp := postQuery(t, ts.URL, okBody)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	waitFor(t, "request in flight", func() bool { return fake.submittedCount() == 1 })

	fake.die(errors.New("node crashed (fault injection)"))
	if code := <-done; code != http.StatusBadGateway {
		t.Fatalf("waiter got %d, want 502", code)
	}

	// New queries fail fast on Submit.
	resp := postQuery(t, ts.URL, okBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("post-death query got %d, want 502", resp.StatusCode)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz %d after backend death, want 503", hresp.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(hresp.Body)
	if !strings.Contains(buf.String(), "crash") {
		t.Errorf("healthz body %q does not name the crash", buf.String())
	}
	if st := srv.Stats(); st.Errors != 2 {
		t.Errorf("errors = %d, want 2", st.Errors)
	}
}

func TestRoundRobinAcrossBackends(t *testing.T) {
	a, b := newFakeBackend(), newFakeBackend()
	_, ts := newTestServer(t, []Backend{a, b}, nil)
	for i := 0; i < 4; i++ {
		resp := postQuery(t, ts.URL, okBody)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	if a.submittedCount() != 2 || b.submittedCount() != 2 {
		t.Errorf("round robin split %d/%d, want 2/2", a.submittedCount(), b.submittedCount())
	}
}

func TestRoundRobinSkipsDeadBackend(t *testing.T) {
	a, b := newFakeBackend(), newFakeBackend()
	_, ts := newTestServer(t, []Backend{a, b}, nil)
	a.die(errors.New("crashed"))
	waitFor(t, "dead backend noticed", func() bool {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	for i := 0; i < 3; i++ {
		resp := postQuery(t, ts.URL, okBody)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200 via live backend", i, resp.StatusCode)
		}
	}
	if b.submittedCount() != 3 {
		t.Errorf("live backend served %d, want 3", b.submittedCount())
	}
}

func TestShutdownRejectsNewWork(t *testing.T) {
	fake := newFakeBackend()
	srv, ts := newTestServer(t, []Backend{fake}, nil)
	reports := srv.Shutdown()
	if len(reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(reports))
	}
	if again := srv.Shutdown(); len(again) != 1 {
		t.Fatal("Shutdown is not idempotent")
	}
	resp := postQuery(t, ts.URL, okBody)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d, want 503", hresp.StatusCode)
	}
	if st := srv.Stats(); !st.Draining || st.Unavailable != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestVarzAndMetrics(t *testing.T) {
	fake := newFakeBackend()
	_, ts := newTestServer(t, []Backend{fake}, nil)
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
	if v.QueueBound != 8 || v.Workers != 2 || v.Backends != 1 || v.Steps != 4 {
		t.Errorf("varz config %+v", v)
	}
	if v.Stats.Served != 1 {
		t.Errorf("varz stats %+v", v.Stats)
	}
	if v.MaxInFlight != 4*(8+2) {
		t.Errorf("defaulted max_in_flight = %d", v.MaxInFlight)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	for _, want := range []string{
		"jaws_server_requests_total 1",
		"jaws_server_served_total 1",
		"jaws_server_latency_seconds_count 1",
		"jaws_server_queue_depth",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestVarzSchedAndTraceDropped wires a flight recorder and a tracer into
// the server: /varz must grow the "sched" section with the recorder's
// live aggregates and the trace drop total, and /metrics must export
// jaws_trace_dropped_total with its HELP line. The recorder keeps each
// count once, in its jaws_sched_* counter, so after a served burst through
// a real session the sched section equals /metrics' jaws_sched_* family.
func TestVarzSchedAndTraceDropped(t *testing.T) {
	tracer, reg := obs.NewTracer(io.Discard), obs.NewRegistry()
	recorder := obs.NewFlightRecorder(false, tracer, reg)
	sess, err := jaws.OpenSession(jaws.Config{
		Space:      jaws.Space{GridSide: 64, AtomSide: 16},
		Steps:      4,
		Seed:       3,
		CacheAtoms: 16,
		Compute:    true,
		Obs:        &obs.Obs{Trace: tracer, Reg: reg, Flight: recorder},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, []Backend{sess}, func(c *Config) {
		c.Reg = reg
		c.Trace = tracer
		c.Flight = recorder
	})
	for seq := int64(0); seq < 5; seq++ {
		recorder.Record(&obs.DecisionRecord{Seq: seq, Chosen: []obs.DecisionAtom{{Step: 1}}})
	}

	v := getVarz(t, ts.URL)
	if v.Sched == nil {
		t.Fatal("/varz has no sched section with a flight recorder configured")
	}
	if v.Sched.Decisions != 5 || v.Sched.ChosenAtoms != 5 {
		t.Errorf("sched varz = %+v, want 5 decisions / 5 chosen", v.Sched.FlightSnapshot)
	}
	if v.Sched.TraceDropped != 0 {
		t.Errorf("sched varz trace_dropped = %d through a working sink", v.Sched.TraceDropped)
	}
	if m := getMetrics(t, ts.URL); !strings.Contains(m, "# HELP jaws_trace_dropped_total") ||
		!strings.Contains(m, "\njaws_trace_dropped_total 0\n") {
		t.Errorf("/metrics lacks jaws_trace_dropped_total 0 and its HELP line:\n%s", m)
	}

	// A served burst: concurrent requests over every step, as many as the
	// slots and the queue hold, so the engine records decisions of several
	// batches.
	var wg sync.WaitGroup
	for i := range 2 + 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := fmt.Sprintf(`{"step":%d,"points":[{"x":%d,"y":2,"z":3},{"x":1,"y":%d,"z":60}]}`, i%4, 4*i, 3*i)
			resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	snap := getVarz(t, ts.URL).Sched.FlightSnapshot
	if snap.Decisions <= 5 {
		t.Fatalf("sched varz = %+v after the burst: no decision recorded", snap)
	}
	metrics := map[string]int64{}
	for _, line := range strings.Split(getMetrics(t, ts.URL), "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "jaws_sched_") {
			var n int64
			fmt.Sscan(val, &n)
			metrics[name] = n
		}
	}
	for name, got := range map[string]int64{
		"jaws_sched_decisions_total":           snap.Decisions,
		"jaws_sched_chosen_atoms_total":        snap.ChosenAtoms,
		"jaws_sched_passover_batch_full_total": snap.PassBatchFull,
		"jaws_sched_passover_lost_race_total":  snap.PassLostRace,
		"jaws_sched_passover_aged_in_total":    snap.PassAgedIn,
		"jaws_sched_gated_edge_rounds_total":   snap.GatedEdgeRounds,
	} {
		if want, ok := metrics[name]; !ok || got != want {
			t.Errorf("/varz sched reads %d where /metrics' %s reads %d (exported: %v)", got, name, want, ok)
		}
	}

	// The no-flight server must omit the section entirely.
	_, plain := newTestServer(t, []Backend{newFakeBackend()}, nil)
	if pv := getVarz(t, plain.URL); pv.Sched != nil {
		t.Errorf("sched section present without a flight recorder: %+v", pv.Sched)
	}
}

// TestTraceDropsAgreeAcrossSurfaces drives a traced server past 4 096
// events and reads the drop count from every surface: /varz
// sched.trace_dropped, jaws_trace_dropped_total, the trace footer's
// sink_dropped, and the audit jawsreport runs. Through a working sink all
// four read 0 and the trace holds every event; through a sink that fails
// after N lines and then recovers, all four read the same number of lost
// lines.
func TestTraceDropsAgreeAcrossSurfaces(t *testing.T) {
	for _, failAfter := range []int{0, 3000} {
		t.Run(fmt.Sprintf("failAfter=%d", failAfter), func(t *testing.T) {
			sink := &traceSink{}
			tracer := obs.NewTracer(sink)
			recorder := obs.NewFlightRecorder(false, tracer, nil)
			_, ts := newTestServer(t, []Backend{newFakeBackend()}, func(c *Config) {
				c.Trace = tracer
				c.Flight = recorder
			})
			for seq := int64(0); seq < 5000; seq++ {
				if failAfter > 0 && seq == int64(failAfter) {
					tracer.Flush()
					sink.setFailing(true)
				}
				recorder.Record(&obs.DecisionRecord{Seq: seq, Chosen: []obs.DecisionAtom{{Step: 1}}})
			}
			for i := 0; i < 3; i++ {
				resp := postQuery(t, ts.URL, okBody)
				resp.Body.Close()
			}
			tracer.Flush()
			sink.setFailing(false)

			varzDropped := getVarz(t, ts.URL).Sched.TraceDropped
			var metricsDropped int64 = -1
			for _, line := range strings.Split(getMetrics(t, ts.URL), "\n") {
				if v, ok := strings.CutPrefix(line, "jaws_trace_dropped_total "); ok {
					fmt.Sscan(v, &metricsDropped)
				}
			}
			if err := tracer.Close(); err != nil && failAfter == 0 {
				t.Fatal(err)
			}
			var audit obs.TraceAudit
			sink.scan(t, tracer, audit.Add)
			if audit.Footer == nil {
				t.Fatal("trace has no footer")
			}
			auditErr := audit.Report(io.Discard)
			lost := audit.Footer.Total - audit.Events

			want := int64(0)
			if failAfter > 0 {
				want = tracer.Total() - int64(failAfter)
			}
			if audit.Footer.Total != tracer.Total() || audit.Footer.Total <= 4096 {
				t.Errorf("footer total %d, tracer emitted %d; want one above 4096", audit.Footer.Total, tracer.Total())
			}
			if varzDropped != want || metricsDropped != want || audit.Footer.SinkDropped != want || lost != want {
				t.Errorf("drops: varz %d, metrics %d, footer %d, audit %d; want %d on every surface",
					varzDropped, metricsDropped, audit.Footer.SinkDropped, lost, want)
			}
			if (auditErr != nil) != (want > 0) {
				t.Errorf("audit verdict %v with %d lost lines", auditErr, want)
			}
		})
	}
}

// getVarz fetches and decodes /varz.
func getVarz(t *testing.T, base string) varz {
	t.Helper()
	resp, err := http.Get(base + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v varz
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// getMetrics fetches the /metrics exposition.
func getMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestChaosCrashFaultOnServicePath runs the serving layer over a real
// session with an internal/fault crash schedule: the first query drives
// the virtual clock past the crash time, the node dies mid-request, and
// the server must answer 502 (not hang) and degrade /healthz.
func TestChaosCrashFaultOnServicePath(t *testing.T) {
	spec, err := jaws.ParseFaultSpec("crash@0:at=1ms")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := jaws.OpenSession(jaws.Config{
		Space:      jaws.Space{GridSide: 64, AtomSide: 32},
		Steps:      4,
		CacheAtoms: 16,
		Fault:      spec,
		FaultSeed:  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, []Backend{sess}, nil)

	// The first query may complete before the virtual clock reaches the
	// crash time; within a few queries the node must die.
	status, body := 0, ""
	for i := 0; i < 5 && status != http.StatusBadGateway; i++ {
		resp := postQuery(t, ts.URL, okBody)
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		status, body = resp.StatusCode, buf.String()
	}
	if status != http.StatusBadGateway {
		t.Fatalf("crashed-node queries never returned 502 (last: %d %q)", status, body)
	}
	if !strings.Contains(body, "crash") {
		t.Errorf("502 body %q does not name the crash", body)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after crash: %d, want 503", hresp.StatusCode)
	}
	if st := srv.Stats(); st.Errors == 0 {
		t.Errorf("stats %+v: no error counted", st)
	}
}

// TestFaultSpecAddressesReplicas builds two session backends the way jawsd
// does — one description, Node set to the replica's index — under a
// schedule that crashes node 1 alone. Replica 0 must go on answering;
// replica 1 must die as node 1; /healthz must name that one backend. Built
// as fault node 0 each (the parent's wiring), neither replica crashed under
// crash@1 and both did under crash@0.
func TestFaultSpecAddressesReplicas(t *testing.T) {
	spec, err := jaws.ParseFaultSpec("crash@1:at=1ms")
	if err != nil {
		t.Fatal(err)
	}
	backends := make([]Backend, 2)
	for i := range backends {
		sess, err := jaws.OpenSession(jaws.Config{
			Space:      jaws.Space{GridSide: 64, AtomSide: 32},
			Steps:      4,
			CacheAtoms: 16,
			Node:       i,
			Fault:      spec,
			FaultSeed:  7,
		})
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = sess
	}
	_, ts := newTestServer(t, backends, nil)

	// Queries alternate between the replicas until replica 1's clock
	// passes the crash time and the server routes around it: every answer
	// is replica 0's 200 or, if the death is noticed mid-request, a 502.
	ok := 0
	for i := 0; i < 12; i++ {
		resp := postQuery(t, ts.URL, okBody)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			ok++
		case http.StatusBadGateway:
		default:
			t.Fatalf("query %d: status %d", i, resp.StatusCode)
		}
	}
	if ok < 6 {
		t.Fatalf("%d of 12 queries answered: replica 0 did not serve throughout", ok)
	}

	// The death is asynchronous; /healthz turns 503 once the server saw it.
	var body string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		hresp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(hresp.Body)
		hresp.Body.Close()
		if body = buf.String(); hresp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz still %d %q: crash@1 crashed no replica", hresp.StatusCode, body)
		}
	}
	if !strings.Contains(body, "backend 1 down") || !strings.Contains(body, "node 1 crashed") {
		t.Fatalf("healthz %q, want backend 1 down as node 1", body)
	}
	if err := backends[0].Err(); err != nil {
		t.Fatalf("replica 0 died under a schedule addressed to node 1: %v", err)
	}
	var crash *jaws.NodeCrashError
	if err := backends[1].Err(); !errors.As(err, &crash) || crash.Node != 1 {
		t.Fatalf("replica 1's error is %v, want a NodeCrashError of node 1", err)
	}
}

// TestDeadlineClampsBeforeMultiplying: timeout_ms is compared with
// MaxDeadline in milliseconds, so a request for a very long deadline gets
// MaxDeadline and not the negative product that used to answer 504 at once.
func TestDeadlineClampsBeforeMultiplying(t *testing.T) {
	const def, max = 7 * time.Second, 2*time.Minute + 500*time.Microsecond
	srv, _ := newTestServer(t, []Backend{newFakeBackend()}, func(c *Config) {
		c.DefaultDeadline, c.MaxDeadline = def, max
	})
	maxMS := int64(max / time.Millisecond)
	for _, c := range []struct {
		timeoutMS int64
		want      time.Duration
	}{
		{math.MinInt64, def},
		{-1, def},
		{0, def},
		{1, time.Millisecond},
		{maxMS - 1, max - 1500*time.Microsecond},
		{maxMS, max - 500*time.Microsecond},
		{maxMS + 1, max},
		{math.MaxInt64 / int64(time.Millisecond), max},
		{math.MaxInt64/int64(time.Millisecond) + 1, max}, // the first product to wrap negative
		{math.MaxInt64, max},
	} {
		if got := srv.deadline(c.timeoutMS); got != c.want {
			t.Errorf("timeout_ms %d: deadline %v, want %v", c.timeoutMS, got, c.want)
		}
	}

	// End to end: the request that used to time out instantly is served.
	fake := newFakeBackend()
	_, ts := newTestServer(t, []Backend{fake}, nil)
	resp := postQuery(t, ts.URL, `{"step":1,"points":[{"x":1,"y":2,"z":3}],"timeout_ms":9223372036854775807}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("timeout_ms = MaxInt64 answered %d, want 200", resp.StatusCode)
	}
}

// TestNonFiniteResultIs500: JSON cannot carry a NaN, and the server says so
// with a status instead of the 200 and empty body it used to send.
func TestNonFiniteResultIs500(t *testing.T) {
	fake := newFakeBackend()
	fake.eval = func(p jaws.Position) [4]float64 { return [4]float64{p.X, math.NaN(), p.Z, 0} }
	srv, ts := newTestServer(t, []Backend{fake}, nil)
	resp := postQuery(t, ts.URL, okBody)
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "backend produced a non-finite value") {
		t.Fatalf("status %d, body %q", resp.StatusCode, body)
	}
	if st := srv.Stats(); st.Errors != 1 || st.Served != 0 {
		t.Errorf("stats %+v, want the request counted as an error and not as served", st)
	}
}
