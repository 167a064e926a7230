package engine

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"jaws/internal/cache"
	"jaws/internal/fault"
	"jaws/internal/job"
	"jaws/internal/obs"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/workload"
)

// TestReplayByteIdenticalTraces is the determinism regression for the
// whole simulation stack: a fixed workload and seed — with fault
// injection running, since the injector is the newest source of
// randomness — must produce byte-identical JSONL traces and equal
// virtual-time reports across two independent engine runs.
func TestReplayByteIdenticalTraces(t *testing.T) {
	run := func() ([]byte, *Report) {
		wl := workload.Generate(workload.Config{
			Seed:           11,
			Space:          testStore(t).Space(),
			Steps:          4,
			Jobs:           8,
			PointsPerQuery: 4,
			OrderedFrac:    0.5,
			LoneQueryFrac:  0.1,
			SpeedUp:        4,
			MeanJobGap:     500 * time.Millisecond,
			ThinkTime:      10 * time.Millisecond,
			QueryScale:     1,
			Hotspots:       3,
		})
		s := testStore(t)
		ch := cache.New(16, cache.NewLRUK(1, 0))
		var buf bytes.Buffer
		spec, err := fault.ParseSpec("disk-transient:p=0.05,extra=1ms;disk-slow:p=0.05,extra=2ms;corrupt:p=0.02")
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(Config{
			Store:    s,
			Cache:    ch,
			Sched:    sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 4, Resident: ch.Contains}),
			Cost:     testCost,
			JobAware: true,
			Obs:      &obs.Obs{Trace: obs.NewTracer(&buf)},
			Fault:    fault.New(spec, 9, 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(wl.Jobs)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.cfg.Obs.Trace.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), rep
	}

	traceA, repA := run()
	traceB, repB := run()
	if len(traceA) == 0 {
		t.Fatal("first run emitted no trace events")
	}
	if !bytes.Equal(traceA, traceB) {
		// Find the first diverging line for a readable failure.
		la, lb := strings.Split(string(traceA), "\n"), strings.Split(string(traceB), "\n")
		for i := 0; i < len(la) && i < len(lb); i++ {
			if la[i] != lb[i] {
				t.Fatalf("traces diverge at line %d:\n  a: %s\n  b: %s", i+1, la[i], lb[i])
			}
		}
		t.Fatalf("traces differ in length: %d vs %d lines", len(la), len(lb))
	}
	if repA.Elapsed != repB.Elapsed || repA.Completed != repB.Completed ||
		repA.Retries != repB.Retries || repA.Faults != repB.Faults {
		t.Fatalf("reports diverge:\n  a: elapsed=%v completed=%d retries=%d faults=%+v\n  b: elapsed=%v completed=%d retries=%d faults=%+v",
			repA.Elapsed, repA.Completed, repA.Retries, repA.Faults,
			repB.Elapsed, repB.Completed, repB.Retries, repB.Faults)
	}
	if repA.Retries == 0 && repA.Faults == (fault.Counts{}) {
		t.Fatal("fault injector never fired; the replay test is not exercising it")
	}
}

// deadlockSched simulates the failure mode stallLimit exists for: work
// is pending forever but no batch is ever released (a gating deadlock).
type deadlockSched struct{}

func (deadlockSched) Name() string                           { return "deadlock" }
func (deadlockSched) Enqueue(*query.SubQuery, time.Duration) {}
func (deadlockSched) NextBatch(time.Duration) []sched.Batch  { return nil }
func (deadlockSched) Pending() int                           { return 1 }
func (deadlockSched) OnRunEnd(rt, tp float64)                {}
func (deadlockSched) Alpha() float64                         { return 0 }

// TestStallLimitAbortsDeadlock checks the engine refuses to spin forever
// when the scheduler deadlocks: the run aborts with a descriptive error
// and the abort is visible in the metrics registry.
func TestStallLimitAbortsDeadlock(t *testing.T) {
	s := testStore(t)
	reg := obs.NewRegistry()
	e, err := New(Config{
		Store: s,
		Cache: cache.New(4, cache.NewLRUK(1, 0)),
		Sched: deadlockSched{},
		Cost:  testCost,
		Obs:   &obs.Obs{Reg: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run([]*job.Job{batchedJob(s, 1, []time.Duration{0}, 0)})
	if err == nil {
		t.Fatal("deadlocked run returned no error")
	}
	if rep != nil {
		t.Fatal("deadlocked run returned a report")
	}
	if !strings.Contains(err.Error(), "stalled") || !strings.Contains(err.Error(), "0/1") {
		t.Fatalf("abort error not descriptive: %v", err)
	}
	if got := reg.Counter("jaws_stall_aborts_total").Value(); got != 1 {
		t.Fatalf("jaws_stall_aborts_total = %d, want 1", got)
	}
}

// TestSessionStallLimitAbortsDeadlock is the serving path's twin: a
// session over a deadlocked scheduler fails with the same error as Run,
// and the abort reaches the metrics registry there too.
func TestSessionStallLimitAbortsDeadlock(t *testing.T) {
	s := testStore(t)
	reg := obs.NewRegistry()
	sess, err := NewSession(Config{
		Store: s,
		Cache: cache.New(4, cache.NewLRUK(1, 0)),
		Sched: deadlockSched{},
		Cost:  testCost,
		Obs:   &obs.Obs{Reg: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(batchedJob(s, 1, []time.Duration{0}, 0)); err != nil {
		t.Fatal(err)
	}
	for range sess.Results() {
	} // the stream closes when the loop gives up
	err = sess.Err()
	if err == nil {
		t.Fatal("deadlocked session reported no error")
	}
	if !strings.Contains(err.Error(), "stalled") || !strings.Contains(err.Error(), "0/1") {
		t.Fatalf("abort error not descriptive: %v", err)
	}
	if got := reg.Counter("jaws_stall_aborts_total").Value(); got != 1 {
		t.Fatalf("jaws_stall_aborts_total = %d, want 1", got)
	}
}
