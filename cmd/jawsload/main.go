// Command jawsload is a seeded load generator for jawsd: it fabricates a
// deterministic stream of /query requests and drives them at the daemon
// in closed-loop (fixed worker count, next request when the last one
// answers) or open-loop (fixed arrival rate) mode, then reports a status
// histogram, latency percentiles, and throughput.
//
// The request plan is a pure function of the flags: -dry-run prints it
// without sending anything, byte-for-byte reproducible for a fixed seed.
//
// -scenario applies a workload scenario's query-class mix to the plan
// (see `jawsbench -list-scenarios`): box cutouts expand client-side into
// a lattice of positions, temporal-derivative queries carry deriv_steps
// so the daemon chains adjacent timesteps. Arrival pacing stays owned by
// -mode/-rate — a scenario shapes *what* is asked, not *when*.
//
// Usage:
//
//	jawsload -addr 127.0.0.1:8080 -requests 256 -clients 16
//	jawsload -addr 127.0.0.1:8080 -mode open -rate 200 -requests 100
//	jawsload -requests 4 -dry-run        # show the plan, send nothing
//	jawsload -scenario deriv-chain -requests 64 -steps 8
//
// Exit status: 0 on success, 1 when the run saw transport errors or 5xx
// responses or served fewer than -min-served queries, 2 on flag errors
// (including an unknown -scenario).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jaws/internal/obs"
	"jaws/internal/server"
	"jaws/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// plan is the full request sequence, fabricated up front so that the
// workload is independent of response timing (and -dry-run can print it).
type plan struct {
	bodies [][]byte
}

// buildPlan derives every request body from the seeded generator. Steps
// cycle uniformly over the store, positions land inside the physical box.
// The scenario overlay contributes the query-class mix: with the zero
// scenario the rng draw sequence (and so the plan bytes) is identical to
// the pre-scenario generator.
func buildPlan(requests, steps, points int, kernel string, coordMax float64, seed int64, sc workload.Scenario) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	boxSide := workload.BoxSide
	if boxSide > coordMax {
		boxSide = coordMax
	}
	chain := sc.DerivChain
	if chain <= 0 {
		chain = 3
	}
	if chain > steps {
		chain = steps
	}
	p := &plan{bodies: make([][]byte, requests)}
	for i := range p.bodies {
		req := server.QueryRequest{
			Step:   rng.Intn(steps),
			Kernel: kernel,
		}
		// Class selector: guarded so a scenario without box or deriv
		// classes consumes exactly the historical draw sequence.
		const (
			classPoint = iota
			classBox
			classDeriv
		)
		class := classPoint
		if sc.BoxFrac > 0 || sc.DerivFrac > 0 {
			switch u := rng.Float64(); {
			case u < sc.DerivFrac && chain >= 2:
				class = classDeriv
			case u < sc.DerivFrac+sc.BoxFrac:
				class = classBox
			}
		}
		switch class {
		case classBox:
			req.Points = boxLattice(rng, points, boxSide, coordMax)
		default:
			if class == classDeriv {
				if req.Step+chain > steps {
					req.Step = steps - chain
				}
				req.DerivSteps = chain
			}
			req.Points = make([]server.Point, points)
			for j := range req.Points {
				req.Points[j] = server.Point{
					X: rng.Float64() * coordMax,
					Y: rng.Float64() * coordMax,
					Z: rng.Float64() * coordMax,
				}
			}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		p.bodies[i] = body
	}
	return p, nil
}

// boxLattice expands a cutout query client-side: a cubic lattice of at
// most `points` positions spanning a box of the given side, centred
// uniformly at random inside [0, coordMax)^3. The daemon speaks only in
// point lists, so the cutout's structure lives in the plan.
func boxLattice(rng *rand.Rand, points int, side, coordMax float64) []server.Point {
	n := 1
	for (n+1)*(n+1)*(n+1) <= points {
		n++
	}
	lo := make([]float64, 3)
	for a := range lo {
		span := coordMax - side
		if span < 0 {
			span = 0
		}
		lo[a] = rng.Float64() * span
	}
	out := make([]server.Point, 0, n*n*n)
	coord := func(a, i int) float64 {
		if n == 1 {
			return lo[a] + side/2
		}
		return lo[a] + side*float64(i)/float64(n-1)
	}
	for ix := 0; ix < n; ix++ {
		for iy := 0; iy < n; iy++ {
			for iz := 0; iz < n; iz++ {
				out = append(out, server.Point{X: coord(0, ix), Y: coord(1, iy), Z: coord(2, iz)})
			}
		}
	}
	return out
}

// reqRecord is one request's client-side outcome: the plan sequence
// number, the X-Jaws-Request-Id the server answered with, and the wall
// latency observed at the client. Written as JSONL by -latency-out so a
// client-side record can be joined against the server's trace by ID.
type reqRecord struct {
	Seq       int     `json:"seq"`
	RequestID string  `json:"request_id,omitempty"`
	Status    int     `json:"status,omitempty"`
	LatencyMS float64 `json:"latency_ms"`
	Err       string  `json:"err,omitempty"`
}

// tally accumulates per-request outcomes across worker goroutines.
type tally struct {
	mu        sync.Mutex
	byStatus  map[int]int
	latencies []time.Duration
	records   []reqRecord
	transport int
}

func (t *tally) note(rec reqRecord, latency time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		rec.Err = err.Error()
		t.records = append(t.records, rec)
		t.transport++
		return
	}
	t.records = append(t.records, rec)
	t.byStatus[rec.Status]++
	if rec.Status == http.StatusOK {
		t.latencies = append(t.latencies, latency)
	}
}

// latencyLine renders the served requests' latency percentiles from their
// ascending latencies — obs.Quantile's rank, the one jawsreport's request
// section reads from the same run's trace.
func latencyLine(asc []time.Duration) string {
	q := func(p int) time.Duration { return obs.Quantile(asc, p).Round(time.Microsecond) }
	return fmt.Sprintf("latency         p50 %v p90 %v p95 %v p99 %v max %v",
		q(50), q(90), q(95), q(99), asc[len(asc)-1].Round(time.Microsecond))
}

// run is the testable body of the generator: flags in, exit code out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jawsload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "jawsd address (host:port)")
		requests   = fs.Int("requests", 64, "total requests to send")
		clients    = fs.Int("clients", 8, "closed-loop worker count")
		mode       = fs.String("mode", "closed", "closed (fixed workers) or open (fixed arrival rate)")
		rate       = fs.Float64("rate", 100, "open-loop arrival rate in requests/second")
		steps      = fs.Int("steps", 8, "steps in the target store (plan cycles over [0, steps))")
		points     = fs.Int("points", 8, "positions per query")
		kernel     = fs.String("kernel", "lag4", "interpolation kernel for every query")
		coordMax   = fs.Float64("coord-max", 6.28, "positions are drawn uniformly from [0, coord-max)^3")
		seed       = fs.Int64("seed", 1, "workload seed (the request plan is a pure function of it)")
		scenario   = fs.String("scenario", "", "workload scenario whose query-class mix shapes the plan (see jawsbench -list-scenarios); empty = all point queries")
		timeout    = fs.Duration("timeout", 30*time.Second, "per-request client timeout")
		minServed  = fs.Int("min-served", 1, "fail the run when fewer queries are served (200)")
		dryRun     = fs.Bool("dry-run", false, "print the request plan and send nothing")
		latencyOut = fs.String("latency-out", "", "write one JSON record per request (seq, request_id, status, latency) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	errf := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "jawsload: "+format+"\n", a...)
		return 1
	}

	if *requests < 1 {
		return errf("need at least one request, got %d", *requests)
	}
	if *clients < 1 {
		return errf("need at least one client, got %d", *clients)
	}
	if *steps < 1 || *points < 1 {
		return errf("steps and points must be positive")
	}
	if *mode != "closed" && *mode != "open" {
		return errf("unknown mode %q (want closed or open)", *mode)
	}
	if *mode == "open" && *rate <= 0 {
		return errf("open-loop mode needs a positive -rate, got %g", *rate)
	}
	var sc workload.Scenario
	if *scenario != "" {
		var ok bool
		if sc, ok = workload.LookupScenario(*scenario); !ok {
			fmt.Fprintf(stderr, "jawsload: unknown scenario %q (have: %s)\n",
				*scenario, strings.Join(workload.ScenarioNames(), ", "))
			return 2
		}
	}

	p, err := buildPlan(*requests, *steps, *points, *kernel, *coordMax, *seed, sc)
	if err != nil {
		return errf("building plan: %v", err)
	}

	if *dryRun {
		label := *scenario
		if label == "" {
			label = "point-only"
		}
		fmt.Fprintf(stdout, "plan            %d requests, seed %d, kernel %s, %d points each, scenario %s\n",
			*requests, *seed, *kernel, *points, label)
		for i, body := range p.bodies {
			fmt.Fprintf(stdout, "req %-4d        %s\n", i, body)
		}
		return 0
	}

	url := "http://" + *addr + "/query"
	client := &http.Client{Timeout: *timeout}
	tl := &tally{byStatus: make(map[int]int)}
	send := func(seq int, body []byte) {
		t0 := time.Now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			tl.note(reqRecord{Seq: seq}, 0, err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		lat := time.Since(t0)
		tl.note(reqRecord{
			Seq:       seq,
			RequestID: resp.Header.Get("X-Jaws-Request-Id"),
			Status:    resp.StatusCode,
			LatencyMS: float64(lat) / float64(time.Millisecond),
		}, lat, nil)
	}

	start := time.Now()
	var wg sync.WaitGroup
	switch *mode {
	case "closed":
		var next atomic.Int64
		for w := 0; w < *clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(p.bodies) {
						return
					}
					send(i, p.bodies[i])
				}
			}()
		}
	case "open":
		interval := time.Duration(float64(time.Second) / *rate)
		for i := range p.bodies {
			if i > 0 {
				time.Sleep(interval)
			}
			wg.Add(1)
			go func(seq int, body []byte) {
				defer wg.Done()
				send(seq, body)
			}(i, p.bodies[i])
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(tl.latencies, func(i, j int) bool { return tl.latencies[i] < tl.latencies[j] })
	served := tl.byStatus[http.StatusOK]
	shed := tl.byStatus[http.StatusTooManyRequests]
	fivexx := 0
	for code, n := range tl.byStatus {
		if code >= 500 {
			fivexx += n
		}
	}

	fmt.Fprintf(stdout, "requests        %d sent in %.2fs (%.1f req/s)\n",
		*requests, elapsed.Seconds(), float64(*requests)/elapsed.Seconds())
	codes := make([]int, 0, len(tl.byStatus))
	for code := range tl.byStatus {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		fmt.Fprintf(stdout, "status %d      x %d\n", code, tl.byStatus[code])
	}
	if tl.transport > 0 {
		fmt.Fprintf(stdout, "transport err   x %d\n", tl.transport)
	}
	if served > 0 {
		fmt.Fprintln(stdout, latencyLine(tl.latencies))
	}
	fmt.Fprintf(stdout, "summary         %d served, %d shed, %d 5xx\n", served, shed, fivexx)

	if *latencyOut != "" {
		// Records in plan order, so the file is reproducible for a fixed
		// seed regardless of completion interleaving.
		sort.Slice(tl.records, func(i, j int) bool { return tl.records[i].Seq < tl.records[j].Seq })
		f, err := os.Create(*latencyOut)
		if err != nil {
			return errf("%v", err)
		}
		enc := json.NewEncoder(f)
		for _, rec := range tl.records {
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return errf("latency-out: %v", err)
			}
		}
		if err := f.Close(); err != nil {
			return errf("latency-out: %v", err)
		}
		fmt.Fprintf(stdout, "latency records -> %s (%d)\n", *latencyOut, len(tl.records))
	}

	if tl.transport > 0 {
		return errf("%d requests failed at the transport level", tl.transport)
	}
	if fivexx > 0 {
		return errf("%d requests answered with 5xx", fivexx)
	}
	if served < *minServed {
		return errf("served %d queries, need at least %d", served, *minServed)
	}
	return 0
}
