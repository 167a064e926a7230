package engine

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"jaws/internal/cache"
	"jaws/internal/field"
	"jaws/internal/job"
	"jaws/internal/obs"
	"jaws/internal/query"
	"jaws/internal/sched"
)

// obsWorkload builds a gated two-job workload that exercises every
// instrumented path: cache hits/misses/evictions, gating edges and
// blocks, adaptation runs, and multi-atom JAWS decisions.
func obsWorkload(t *testing.T) (*Engine, *obs.Obs, *bytes.Buffer, []*job.Job) {
	t.Helper()
	s := testStore(t)
	c := cache.New(4, cache.NewLRUK(1, 0)) // tiny: forces evictions
	var sink bytes.Buffer
	o := &obs.Obs{
		Trace: obs.NewTracer(&sink),
		Reg:   obs.NewRegistry(),
	}
	sc := sched.NewJAWS(sched.JAWSConfig{
		Cost: testCost, BatchSize: 4, InitialAlpha: 0.5, Adaptive: true,
		Resident: c.Contains,
	})
	e, err := New(Config{
		Store: s, Cache: c, Sched: sc, Cost: testCost,
		JobAware: true, RunLength: 2, Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	think := 50 * time.Millisecond
	// Jobs 1 and 2 walk the same atoms (gating alignment + cache hits);
	// job 3 walks a different atom row, overflowing the 4-atom cache so
	// evictions fire too.
	j3 := &job.Job{ID: 3, User: 3, Type: job.Ordered, ThinkTime: think}
	for i := 0; i < 4; i++ {
		j3.Queries = append(j3.Queries, &query.Query{
			ID: query.ID(3000 + int64(i)), JobID: 3, Seq: i, Step: i,
			Points: pointsInAtom(s, uint32(i), 2, 2, 50),
			Kernel: field.KernelNone,
		})
	}
	j3.Queries[0].Arrival = 4 * time.Second
	jobs := []*job.Job{
		orderedJob(s, 1, []int{0, 1, 2, 3}, []uint32{0, 1, 2, 3}, think, 0),
		orderedJob(s, 2, []int{0, 1, 2, 3}, []uint32{0, 1, 2, 3}, think, 2*time.Second),
		j3,
	}
	return e, o, &sink, jobs
}

// traceEvents flushes tr and reads back, through the reader jawsreport
// uses, every event its sink received.
func traceEvents(t *testing.T, tr *obs.Tracer, sink *bytes.Buffer) []obs.Event {
	t.Helper()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var evs []obs.Event
	if err := obs.ScanTrace(bytes.NewReader(sink.Bytes()), func(ev *obs.Event) error {
		evs = append(evs, *ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return evs
}

func TestObsEventsAndCountersConsistent(t *testing.T) {
	e, o, sink, jobs := obsWorkload(t)
	rep, err := e.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}

	events := traceEvents(t, o.Trace, sink)
	kinds := make(map[obs.Kind]int)
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	for _, want := range []obs.Kind{
		obs.KindDecision, obs.KindCacheHit, obs.KindCacheMiss,
		obs.KindCacheEvict, obs.KindDiskRead, obs.KindAlpha,
	} {
		if kinds[want] == 0 {
			t.Errorf("no %s events emitted (mix: %v)", want, kinds)
		}
	}
	if kinds[obs.KindEdgeAdmit]+kinds[obs.KindEdgeReject] == 0 {
		t.Errorf("no gating-edge events (mix: %v)", kinds)
	}

	// The registry's counters must agree with the engine report's own
	// accounting — they observed the same run.
	reg := o.Reg
	if got := reg.Counter("jaws_cache_hits_total").Value(); got != rep.CacheStats.Hits {
		t.Errorf("cache hits: counter %d, report %d", got, rep.CacheStats.Hits)
	}
	if got := reg.Counter("jaws_cache_misses_total").Value(); got != rep.CacheStats.Misses {
		t.Errorf("cache misses: counter %d, report %d", got, rep.CacheStats.Misses)
	}
	if got := reg.Counter("jaws_cache_evictions_total").Value(); got != rep.CacheStats.Evictions {
		t.Errorf("cache evictions: counter %d, report %d", got, rep.CacheStats.Evictions)
	}
	if got := reg.Counter("jaws_disk_reads_total").Value(); got != rep.DiskStats.Reads {
		t.Errorf("disk reads: counter %d, report %d", got, rep.DiskStats.Reads)
	}
	if got := reg.Counter("jaws_queries_completed_total").Value(); got != int64(rep.Completed) {
		t.Errorf("completed: counter %d, report %d", got, rep.Completed)
	}
	if got := int(reg.Counter("jaws_gate_edges_admitted_total").Value()); got != rep.GatingAdmitted {
		t.Errorf("edges admitted: counter %d, report %d", got, rep.GatingAdmitted)
	}
	if got := int(reg.Counter("jaws_gate_edges_rejected_total").Value()); got != rep.GatingRejected {
		t.Errorf("edges rejected: counter %d, report %d", got, rep.GatingRejected)
	}
	if got := reg.Counter("jaws_runs_total").Value(); got != int64(len(rep.Runs)) {
		t.Errorf("runs: counter %d, report %d", got, len(rep.Runs))
	}
	if got := reg.Histogram("jaws_response_seconds").Count(); got != int64(rep.Completed) {
		t.Errorf("response histogram count %d, completed %d", got, rep.Completed)
	}
	// Every trace event carries a non-decreasing-capable virtual stamp
	// within [0, Elapsed].
	for _, ev := range events {
		if ev.T < 0 || ev.T > rep.Elapsed {
			t.Fatalf("event %s stamped %v outside run [0, %v]", ev.Kind, ev.T, rep.Elapsed)
		}
	}
}

func TestObsDecisionEventsMatchScheduler(t *testing.T) {
	e, o, sink, jobs := obsWorkload(t)
	if _, err := e.Run(jobs); err != nil {
		t.Fatal(err)
	}
	decisions := 0
	for _, ev := range traceEvents(t, o.Trace, sink) {
		if ev.Kind != obs.KindDecision {
			continue
		}
		decisions++
		if ev.Sched != "JAWS" {
			t.Fatalf("decision credited to %q", ev.Sched)
		}
		if ev.K < 1 {
			t.Fatalf("decision with batch size %d", ev.K)
		}
		if ev.Alpha < 0 || ev.Alpha > 1 {
			t.Fatalf("decision with α=%g", ev.Alpha)
		}
	}
	if decisions == 0 {
		t.Fatal("no decision events")
	}
	// Scheduled atoms (decision events) must cover the batch counter.
	if got := o.Reg.Counter("jaws_batch_atoms_total").Value(); got != int64(decisions) {
		t.Fatalf("batch atoms counter %d, decision events %d", got, decisions)
	}
}

func TestObsJSONLSinkRoundTrips(t *testing.T) {
	s := testStore(t)
	c := cache.New(8, cache.NewLRUK(1, 0))
	var buf bytes.Buffer
	o := &obs.Obs{Trace: obs.NewTracer(&buf)}
	e, err := New(Config{
		Store: s, Cache: c, Sched: sched.NewNoShare(), Cost: testCost, Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run([]*job.Job{batchedJob(s, 1, []time.Duration{0, 0, 0}, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := o.Trace.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if int64(len(lines)) != o.Trace.Total() {
		t.Fatalf("sink has %d lines, tracer emitted %d", len(lines), o.Trace.Total())
	}
	for i, line := range lines {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if ev.Kind == "" {
			t.Fatalf("line %d has no kind", i+1)
		}
	}
}

// A second engine over the same store/cache without Obs must clear the
// hooks the first engine installed — no events may leak into the old
// tracer. Each engine has a scheduler of its own, as every caller gives it.
func TestObsHooksClearedAcrossEngines(t *testing.T) {
	s := testStore(t)
	c := cache.New(8, cache.NewLRUK(1, 0))
	o := &obs.Obs{Trace: obs.NewTracer(io.Discard), Reg: obs.NewRegistry()}
	newSched := func() sched.Scheduler { return sched.NewJAWS(sched.JAWSConfig{Cost: testCost, Resident: c.Contains}) }
	e1, err := New(Config{Store: s, Cache: c, Sched: newSched(), Cost: testCost, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Run([]*job.Job{batchedJob(s, 1, []time.Duration{0}, 0)}); err != nil {
		t.Fatal(err)
	}
	before := o.Trace.Total()
	if before == 0 {
		t.Fatal("instrumented run emitted nothing")
	}

	e2, err := New(Config{Store: s, Cache: c, Sched: newSched(), Cost: testCost})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Run([]*job.Job{batchedJob(s, 2, []time.Duration{0}, 1)}); err != nil {
		t.Fatal(err)
	}
	if after := o.Trace.Total(); after != before {
		t.Fatalf("uninstrumented run leaked %d events into the old tracer", after-before)
	}
}

func TestObsGateWaitMeasured(t *testing.T) {
	e, o, sink, jobs := obsWorkload(t)
	if _, err := e.Run(jobs); err != nil {
		t.Fatal(err)
	}
	blocks, admits := 0, 0
	for _, ev := range traceEvents(t, o.Trace, sink) {
		switch ev.Kind {
		case obs.KindGateBlock:
			blocks++
		case obs.KindGateAdmit:
			admits++
			if ev.Wait <= 0 {
				t.Fatalf("gate_admit with non-positive wait %v", ev.Wait)
			}
		}
	}
	if blocks != admits {
		t.Fatalf("%d blocks but %d admits — a blocked query never dispatched", blocks, admits)
	}
	if blocked := o.Reg.Counter("jaws_gate_blocked_total").Value(); blocked != int64(blocks) {
		t.Fatalf("blocked counter %d, block events %d", blocked, blocks)
	}
}
