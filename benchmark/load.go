package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// verifyEvery is the sampling stride of the full recomputation check:
// every 16th response of a timed phase is kept and recomputed afterwards.
const verifyEvery = 16

// maxConns caps the load generator's keep-alive connections. The harness
// and the daemon share the machine, so more connections than processors
// would measure the OS scheduler.
func maxConns() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// conn is one keep-alive connection to the daemon, owned by one goroutine.
type conn struct {
	hc  *http.Client
	url string
	buf bytes.Buffer
	// rt, when non-nil, observes every round trip and its response body
	// (the traced run's HTTP client decorator).
	rt func(body []byte, start, end time.Time)
}

func newConn(base string) *conn {
	return &conn{
		url: base + "/query",
		// The daemon answers or times a request out within its 30 s
		// default deadline; past that the harness gives up on it.
		hc: &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// post sends one request body and returns the status and the response
// bytes, which stay valid until the next post on this connection.
func (c *conn) post(body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// sampled is one response kept for the recomputation check.
type sampled struct {
	plan int // index of the request in the plan
	body []byte
}

// sliceLen is the length of the slices a closed phase's completions are
// counted in; its throughput is the mean of the middle half of the slices,
// which a stall shorter than a quarter of the phase does not move.
const sliceLen = 500 * time.Millisecond

// phase is what one timed phase measured, merged over its connections.
type phase struct {
	wall    time.Duration
	start   time.Time // set before the phase's first send
	slices  []int64   // answered requests per sliceLen since start
	sent    int64
	failed  int64     // non-200, transport error, or a wrong value count
	lat     []float64 // ms per answered request; from the due time in the open phase
	sloMiss int64     // open phase: sent but not answered 200 within the limit
	samples []sampled
	respB   int64 // response bytes received
	genCPU  time.Duration
	err     error // first failure, for the report

	// Open phase only: how late the generator itself ran. A send counts
	// here only when its connection was idle before the due time, so the
	// lateness is the pacer's oversleep and not the daemon's backlog.
	slept    int
	late     []float64 // ms of oversleep per slept send
	lateOver int       // slept sends late by more than one inter-arrival gap
}

func (p *phase) merge(q *phase) {
	for i, n := range q.slices {
		if i == len(p.slices) {
			p.slices = append(p.slices, 0)
		}
		p.slices[i] += n
	}
	p.sent += q.sent
	p.failed += q.failed
	p.lat = append(p.lat, q.lat...)
	p.sloMiss += q.sloMiss
	p.samples = append(p.samples, q.samples...)
	p.respB += q.respB
	p.slept += q.slept
	p.late = append(p.late, q.late...)
	p.lateOver += q.lateOver
	if p.err == nil {
		p.err = q.err
	}
}

var positionKey = []byte(`"position"`)

// exchange sends plan request i over c and books the outcome into ph. due
// is the instant latency is timed from. It reports whether the request was
// answered 200 with the right number of values.
func exchange(c *conn, pl *plan, seq int64, due time.Time, ph *phase) bool {
	i := int(seq % int64(len(pl.bodies)))
	start := time.Now()
	status, body, err := c.post(pl.bodies[i])
	end := time.Now()
	if c.rt != nil {
		c.rt(body, start, end)
	}
	ph.sent++
	ok := err == nil && status == http.StatusOK && bytes.Count(body, positionKey) == pl.points[i]
	if !ok {
		ph.failed++
		if ph.err == nil {
			switch {
			case err != nil:
				ph.err = err
			case status != http.StatusOK:
				ph.err = fmt.Errorf("request %d: status %d: %.200s", seq, status, body)
			default:
				ph.err = fmt.Errorf("request %d: %d values for %d points", seq, bytes.Count(body, positionKey), pl.points[i])
			}
		}
		return false
	}
	ph.lat = append(ph.lat, float64(end.Sub(due))/float64(time.Millisecond))
	k := int(end.Sub(ph.start) / sliceLen)
	for len(ph.slices) <= k {
		ph.slices = append(ph.slices, 0)
	}
	ph.slices[k]++
	ph.respB += int64(len(body))
	if seq%verifyEvery == 0 {
		ph.samples = append(ph.samples, sampled{plan: i, body: append([]byte(nil), body...)})
	}
	return true
}

// fanOut runs fn once per connection and merges the per-connection phases.
func fanOut(conns []*conn, fn func(c *conn, ph *phase)) *phase {
	parts := make([]phase, len(conns))
	cpu0 := selfCPU()
	t0 := time.Now()
	for k := range parts {
		parts[k].start = t0
	}
	var wg sync.WaitGroup
	for k := range conns {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			fn(conns[k], &parts[k])
		}(k)
	}
	wg.Wait()
	total := &phase{wall: time.Since(t0), start: t0, genCPU: selfCPU() - cpu0}
	for k := range parts {
		total.merge(&parts[k])
	}
	return total
}

// runClosed sends back-to-back over every connection for dur: the
// saturation phase, whose completion rate is the capacity any open
// schedule over the same connections can reach.
func runClosed(conns []*conn, pl *plan, dur time.Duration) *phase {
	var next atomic.Int64
	deadline := time.Now().Add(dur)
	return fanOut(conns, func(c *conn, ph *phase) {
		for time.Now().Before(deadline) {
			exchange(c, pl, next.Add(1)-1, time.Now(), ph)
		}
	})
}

// runCount sends exactly n plan requests, back-to-back over every
// connection (warm-up and the smoke test's fixed-size phases).
func runCount(conns []*conn, pl *plan, n int64) *phase {
	var next atomic.Int64
	return fanOut(conns, func(c *conn, ph *phase) {
		for {
			seq := next.Add(1) - 1
			if seq >= n {
				return
			}
			exchange(c, pl, seq, time.Now(), ph)
		}
	})
}

// runOpen sends rate requests per second for dur on a schedule of absolute
// due times fixed before the first send. A connection that is free before a
// request is due sleeps until then; one that is not sends at once, and the
// wait shows in the latency, which is timed from the due time either way.
func runOpen(conns []*conn, pl *plan, rate float64, dur, limit time.Duration) *phase {
	n := int64(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	gap := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	t0 := time.Now().Add(10 * time.Millisecond)
	limitMS := float64(limit) / float64(time.Millisecond)
	return fanOut(conns, func(c *conn, ph *phase) {
		for {
			seq := next.Add(1) - 1
			if seq >= n {
				return
			}
			due := t0.Add(time.Duration(seq) * gap)
			if d := time.Until(due); d > 0 {
				sleepFor(d)
				late := time.Since(due)
				ph.slept++
				ph.late = append(ph.late, float64(late)/float64(time.Millisecond))
				if late > gap {
					ph.lateOver++
				}
			}
			if !exchange(c, pl, seq, due, ph) || ph.lat[len(ph.lat)-1] > limitMS {
				ph.sloMiss++
			}
		}
	})
}

// rate is the phase's throughput in answered requests per second: the
// interquartile mean over its whole slices, or the plain mean when it is
// too short to have four.
func (p *phase) rate() float64 {
	whole := int(p.wall / sliceLen)
	if whole > len(p.slices) {
		whole = len(p.slices)
	}
	if whole < 4 {
		return ratio(float64(len(p.lat)), p.wall.Seconds())
	}
	counts := append([]int64(nil), p.slices[:whole]...)
	sort.Slice(counts, func(i, j int) bool { return counts[i] < counts[j] })
	var n int64
	mid := counts[whole/4 : whole-whole/4]
	for _, c := range mid {
		n += c
	}
	return float64(n) / (float64(len(mid)) * sliceLen.Seconds())
}

// sleepFor blocks the calling thread in nanosleep(2). time.Sleep rounds
// sub-millisecond waits up to about a millisecond (the runtime's netpoll
// granularity), which at the hot workload's 0.4 ms inter-arrival gap would
// turn the open schedule into bursts; the system call oversleeps by the
// kernel's 50 µs timer slack only.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}
