package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jaws"
)

// slowBackend throttles Submit so a burst of clients reliably overwhelms
// a small queue: every serving slot is pinned inside Submit long enough
// for the waiting requests to reach the bound and shedding to kick in.
type slowBackend struct {
	Backend
	delay time.Duration
	// entered, when set, counts the Submit calls begun: the requests that
	// have taken a slot.
	entered *atomic.Int64
}

func (s slowBackend) Submit(jobs ...*jaws.Job) error {
	if s.entered != nil {
		s.entered.Add(1)
	}
	time.Sleep(s.delay)
	return s.Backend.Submit(jobs...)
}

func openTestSession(t *testing.T) *jaws.Session {
	t.Helper()
	sess, err := jaws.OpenSession(jaws.Config{
		Space:      jaws.Space{GridSide: 64, AtomSide: 32},
		Steps:      4,
		Seed:       3,
		CacheAtoms: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// fire sends one query per client through a shared barrier and tallies
// the responses by status code, recording served query IDs.
func fire(t *testing.T, url string, clients int) (byStatus map[int]int, ids map[int64]int) {
	t.Helper()
	var (
		mu    sync.Mutex
		wg    sync.WaitGroup
		start = make(chan struct{})
	)
	byStatus = make(map[int]int)
	ids = make(map[int64]int)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Post(url+"/query", "application/json",
				strings.NewReader(`{"step":1,"points":[{"x":1,"y":2,"z":3}]}`))
			if err != nil {
				mu.Lock()
				byStatus[-1]++
				mu.Unlock()
				return
			}
			defer resp.Body.Close()
			var out QueryResponse
			if resp.StatusCode == http.StatusOK {
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Errorf("decoding 200 body: %v", err)
				}
			}
			mu.Lock()
			byStatus[resp.StatusCode]++
			if resp.StatusCode == http.StatusOK {
				ids[out.QueryID]++
			}
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()
	return byStatus, ids
}

// TestConcurrentClientsShedExactlyOnce is the acceptance scenario: 64
// concurrent clients against a queue bound of 8 and two throttled
// slots. Some requests must be shed with 429; every accepted request
// is served exactly once (unique query IDs, engine completion count
// equal to the number of 200s); nothing is lost or double-served.
func TestConcurrentClientsShedExactlyOnce(t *testing.T) {
	sess := openTestSession(t)
	srv, err := New(Config{
		Backends:    []Backend{slowBackend{Backend: sess, delay: 20 * time.Millisecond}},
		QueueBound:  8,
		Workers:     2,
		MaxInFlight: 1 << 20, // only the queue sheds in this scenario
		Steps:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 64
	byStatus, ids := fire(t, ts.URL, clients)

	served, shed := byStatus[http.StatusOK], byStatus[http.StatusTooManyRequests]
	if served+shed != clients {
		t.Fatalf("status histogram %v: 200s+429s = %d, want %d", byStatus, served+shed, clients)
	}
	if served == 0 || shed == 0 {
		t.Fatalf("status histogram %v: want both served and shed requests", byStatus)
	}
	for id, n := range ids {
		if n != 1 {
			t.Errorf("query %d served %d times", id, n)
		}
	}
	if len(ids) != served {
		t.Errorf("%d distinct query IDs for %d served requests", len(ids), served)
	}

	reports := srv.Shutdown()
	if len(reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(reports))
	}
	if reports[0].Completed != served {
		t.Errorf("engine completed %d queries, server served %d — accepted work was lost or duplicated",
			reports[0].Completed, served)
	}
	st := srv.Stats()
	if st.Served != int64(served) || st.Shed != int64(shed) {
		t.Errorf("stats %+v disagree with client tally (%d served, %d shed)", st, served, shed)
	}
	if st.Timeouts != 0 || st.Errors != 0 || st.LateResults != 0 {
		t.Errorf("unexpected failures in stats %+v", st)
	}
}

// TestGracefulDrainServesAccepted shuts the server down while requests
// are queued and in flight: every accepted request must still be served
// (no request dropped after accept), and only new work is refused.
func TestGracefulDrainServesAccepted(t *testing.T) {
	sess := openTestSession(t)
	var taken atomic.Int64
	srv, err := New(Config{
		Backends:   []Backend{slowBackend{Backend: sess, delay: 30 * time.Millisecond, entered: &taken}},
		QueueBound: 8,
		Workers:    2,
		Steps:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const accepted = 6 // 2 slots + 4 waiting, all within bounds
	codes := make(chan int, accepted)
	for i := 0; i < accepted; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/query", "application/json",
				strings.NewReader(`{"step":1,"points":[{"x":1,"y":2,"z":3}]}`))
			if err != nil {
				codes <- -1
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	// In flight is not enough: a handler counts as in flight before it is
	// admitted, and Shutdown rightly answers one that has not yet been
	// 503. Wait until every request is admitted — waiting for a slot or
	// holding one. The slot holders are read first: a request that takes a
	// slot between the two reads is then missed, and the poll repeats,
	// never counted twice.
	waitFor(t, "all requests admitted", func() bool {
		n := taken.Load()
		return n+int64(srv.Stats().QueueDepth) == accepted
	})

	reports := srv.Shutdown()

	for i := 0; i < accepted; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("accepted request finished with %d after drain, want 200", code)
		}
	}
	if len(reports) != 1 || reports[0].Completed != accepted {
		t.Errorf("drained engine report %+v, want %d completed", reports, accepted)
	}

	resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"step":1,"points":[{"x":1,"y":2,"z":3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain query got %d, want 503", resp.StatusCode)
	}
}

// TestManyClientsAgainstReplicaPool spreads a burst over three session
// replicas with a roomy queue: everything is served, exactly once, with
// completions distributed across all backends.
func TestManyClientsAgainstReplicaPool(t *testing.T) {
	backs := make([]Backend, 3)
	for i := range backs {
		backs[i] = openTestSession(t)
	}
	srv, err := New(Config{Backends: backs, QueueBound: 128, Workers: 12, Steps: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 48
	byStatus, ids := fire(t, ts.URL, clients)
	if byStatus[http.StatusOK] != clients {
		t.Fatalf("status histogram %v, want all %d served", byStatus, clients)
	}
	if len(ids) != clients {
		t.Fatalf("%d distinct query IDs, want %d", len(ids), clients)
	}

	reports := srv.Shutdown()
	total := 0
	for _, rep := range reports {
		if rep.Completed == 0 {
			t.Error("a replica served nothing: round robin is not spreading load")
		}
		total += rep.Completed
	}
	if total != clients {
		t.Errorf("replicas completed %d queries in total, want %d", total, clients)
	}
}

// TestConcurrentBulkRequestsKeepTheirBytes drives 64 clients, each with
// its own 512-point request, through the pooled read buffer, position
// scratch and write buffer at once, and recomputes every response from the
// request that asked for it. A buffer handed back to its pool while a
// request still reads or fills it shows here as a wrong number, not only
// as a race report.
func TestConcurrentBulkRequestsKeepTheirBytes(t *testing.T) {
	eval := func(p jaws.Position) [4]float64 { return [4]float64{p.X + p.Y, p.Y * p.Z, p.Z - p.X, p.X * 1e-9} }
	fake := newFakeBackend()
	fake.eval = eval
	_, ts := newTestServer(t, []Backend{fake}, func(c *Config) {
		c.QueueBound, c.Workers = 64, 8
		c.MaxBodyBytes, c.MaxPoints = 1<<20, 512
	})

	const clients, points, rounds = 64, 512, 3
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				sent := bulkRequest(points, int64(c*rounds+round))
				body, _ := json.Marshal(sent)
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var got QueryResponse
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || len(got.Values) != points {
					t.Errorf("client %d: status %d, %d values, decode error %v", c, resp.StatusCode, len(got.Values), err)
					return
				}
				for i, v := range got.Values {
					val := eval(jaws.Position(sent.Points[i]))
					want := PointValue{Position: sent.Points[i], Velocity: [3]float64{val[0], val[1], val[2]}, Pressure: val[3]}
					if v != want {
						t.Errorf("client %d round %d value %d = %+v, want %+v", c, round, i, v, want)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}
