package main

import (
	"fmt"
	"time"
)

// options are one invocation's settings, shared by every workload.
type options struct {
	root    string  // repository root (BENCH_main.json, .bench_build)
	jawsd   string  // path of the built daemon
	seed    int64   // workload seed: the same seed gives the same inputs
	seconds float64 // how long a run measures
	// scale shrinks plans, warm-ups and traces; 1 is the calibrated size
	// every reported number uses, the smoke test runs at 1/50.
	scale float64
	// traceOut, when set, receives the traced run's spans as JSONL.
	traceOut string
	// plant, when non-nil, rewrites each sampled response before the
	// recomputation check (the test that a wrong value is caught).
	plant func([]byte) []byte
	// v recomputes sampled responses; a serve run opens it once, so every
	// check of the invocation shares the atoms it has materialised.
	v *verifier
}

func (o options) dur(share float64) time.Duration {
	return time.Duration(o.seconds * share * float64(time.Second))
}

func (o options) scaled(n int) int {
	if m := int(float64(n) * o.scale); m > 1 {
		return m
	}
	return 1
}

// outcome is one run of one workload.
type outcome struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	// Notes are the run's warnings and first failures, printed with the
	// table: a late generator, an unreliable trace, a mismatching value.
	Notes []string `json:"notes,omitempty"`
}

func (o *outcome) fail(n int64, format string, a ...any) {
	o.Failed += n
	if len(o.Notes) < 20 {
		o.Notes = append(o.Notes, "FAIL: "+fmt.Sprintf(format, a...))
	}
}

func (o *outcome) note(format string, a ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, a...))
}

// Phase shares of a serve run's measured seconds. The open phase runs
// first: its request count is fixed by the schedule, so the live heap
// scraped right after it follows a known number of requests whatever the
// daemon's speed. The closed phase then measures capacity and the
// per-query CPU and allocation costs at saturation.
const (
	openShare   = 0.4
	closedShare = 0.6
	// setupRepeats is how many times a run sets up (plan, boot, warm-up);
	// setup_s is the median and the last daemon is the one measured.
	setupRepeats = 5
)

// rig is a booted, warmed-up daemon with its plan and connections.
type rig struct {
	d     *daemon
	pl    *plan
	conns []*conn
	warm  *phase
	took  time.Duration
}

// setUp builds the plan, boots jawsd and sends the untimed warm-up: the
// cover requests that make the resident-set workloads' atoms resident,
// then plan requests over every connection.
func setUp(s serveSpec, o options, extra ...string) (*rig, error) {
	t0 := time.Now()
	pl, err := buildPlan(s, o.seed, o.scale)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(o.jawsd, extra...)
	if err != nil {
		return nil, err
	}
	r := &rig{d: d, pl: pl}
	for i := 0; i < maxConns(); i++ {
		r.conns = append(r.conns, newConn(d.base))
	}
	r.warm, err = warmUp(r.conns, pl, o.scaled(s.warm))
	if err != nil {
		r.abandon()
		return nil, err
	}
	r.took = time.Since(t0)
	return r, nil
}

// warmUp sends the cover requests, then n plan requests from the end of
// the plan backwards (so the timed phases do not start on just-seen
// requests). Any failure here is a set-up error, not a measured failure.
func warmUp(conns []*conn, pl *plan, n int) (*phase, error) {
	for _, body := range pl.cover {
		status, resp, err := conns[0].post(body)
		if err != nil || status != 200 {
			return nil, fmt.Errorf("warm-up cover request: status %d, error %v: %.200s", status, err, resp)
		}
	}
	tail := &plan{}
	for i := 0; i < n; i++ {
		k := len(pl.bodies) - 1 - i%len(pl.bodies)
		tail.bodies = append(tail.bodies, pl.bodies[k])
		tail.points = append(tail.points, pl.points[k])
	}
	ph := runCount(conns, tail, int64(n))
	if ph.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed: %v", ph.failed, ph.sent, ph.err)
	}
	ph.sent += int64(len(pl.cover))
	return ph, nil
}

func (r *rig) closeConns() {
	for _, c := range r.conns {
		c.close()
	}
}

// abandon stops a daemon whose accounting nobody will read.
func (r *rig) abandon() {
	r.closeConns()
	_, _ = r.d.stop()
}

// setUpMedian sets up setupRepeats times, keeps the last rig and returns
// the median set-up time in seconds.
func setUpMedian(s serveSpec, o options) (*rig, float64, error) {
	var took []float64
	var r *rig
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			r.abandon()
		}
		var err error
		if r, err = setUp(s, o); err != nil {
			return nil, 0, err
		}
		took = append(took, r.took.Seconds())
	}
	return r, median(took), nil
}

// costWindow brackets the closed phase with the daemon's CPU and
// allocator counters.
type costWindow struct {
	cpu time.Duration
	mem memCounters
}

func (d *daemon) window() (costWindow, error) {
	mem, err := d.mem(false)
	if err != nil {
		return costWindow{}, err
	}
	cpu, err := d.cpu()
	return costWindow{cpu: cpu, mem: mem}, err
}

// saturate runs the closed phase against r's daemon and books qps and the
// per-query costs into m.
func saturate(r *rig, dur time.Duration, m metricSet) (*phase, error) {
	w0, err := r.d.window()
	if err != nil {
		return nil, err
	}
	ph := runClosed(r.conns, r.pl, dur)
	w1, err := r.d.window()
	if err != nil {
		return nil, err
	}
	n := float64(len(ph.lat))
	m["qps"] = ph.rate()
	m["cpu_ms_per_query"] = ratio(float64(w1.cpu-w0.cpu)/float64(time.Millisecond), n)
	m["allocs_per_query"] = ratio(float64(w1.mem.Mallocs-w0.mem.Mallocs), n)
	m["alloc_kb_per_query"] = ratio(float64(w1.mem.TotalAlloc-w0.mem.TotalAlloc)/1024, n)
	return ph, nil
}

// pace runs the open phase and flags a schedule the generator did not keep.
func pace(r *rig, s serveSpec, dur time.Duration, out *outcome) *phase {
	ph := runOpen(r.conns, r.pl, s.openRate, dur, s.limit)
	// More than 1 % of the paced sends woke later than one inter-arrival
	// gap: the schedule was not the one asked for.
	if ph.slept > 0 && ph.lateOver*100 > ph.slept {
		out.note("INVALID open phase: generator woke late by more than one gap on %d of %d paced sends", ph.lateOver, ph.slept)
	}
	return ph
}

// settle stops the daemon and runs the checks that need the whole run:
// the daemon's own accounting must agree with the harness's, and every
// sampled response must recompute.
func settle(r *rig, o options, out *outcome, phases ...*phase) error {
	r.closeConns()
	sum, err := r.d.stop()
	if err != nil {
		return err
	}
	var answered int64
	for _, ph := range append([]*phase{r.warm}, phases...) {
		out.Attempted += ph.sent
		answered += ph.sent - ph.failed
		if ph.failed > 0 {
			out.fail(ph.failed, "%d of %d requests failed: %v", ph.failed, ph.sent, ph.err)
		}
	}
	if sum.Served != answered || sum.Shed+sum.Timeouts+sum.Errors != 0 {
		out.fail(1, "daemon accounting disagrees: it served %d (shed %d, timeouts %d, errors %d), the harness saw %d answered",
			sum.Served, sum.Shed, sum.Timeouts, sum.Errors, answered)
	}
	for _, ph := range phases {
		for _, sm := range ph.samples {
			body := sm.body
			if o.plant != nil {
				body = o.plant(body)
			}
			if err := o.v.check(r.pl.bodies[sm.plan], body); err != nil {
				out.fail(1, "recomputation: %v", err)
			}
		}
	}
	return nil
}

// runServe measures one serve workload end to end against a real jawsd.
func runServe(s serveSpec, o options) (*outcome, error) {
	out := &outcome{Workload: s.name, Seed: o.seed, Metrics: metricSet{}}
	var err error
	if o.v, err = newVerifier(); err != nil {
		return nil, err
	}
	r, setup, err := setUpMedian(s, o)
	if err != nil {
		return nil, err
	}
	m := out.Metrics
	m["setup_s"] = setup

	open := pace(r, s, o.dur(openShare), out)
	m["lat_p50_ms"] = percentile(open.lat, 50)
	mem, err := r.d.mem(true)
	if err != nil {
		r.abandon()
		return nil, err
	}
	m["live_heap_mb"] = float64(mem.HeapAlloc) / (1 << 20)
	closed, err := saturate(r, o.dur(closedShare), m)
	if err != nil {
		r.abandon()
		return nil, err
	}
	if err := settle(r, o, out, open, closed); err != nil {
		return nil, err
	}
	out.note("open phase: %d requests at %.0f/s, p90 %.3f ms, p99 %.3f ms, %d over the %v limit; %d paced sends woke p99 %.3f ms late",
		open.sent, s.openRate, percentile(open.lat, 90), percentile(open.lat, 99), open.sloMiss, s.limit, open.slept, percentile(open.late, 99))
	out.note("closed phase: %d requests over %d connections in %.2f s", closed.sent, len(r.conns), closed.wall.Seconds())
	out.Correct = out.Failed == 0
	return out, nil
}
