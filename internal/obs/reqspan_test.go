package obs

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestReqSpanConservation drives a full lifecycle and checks the
// attribution invariant: phases sum exactly to Wall, whatever the real
// clock did between marks.
func TestReqSpanConservation(t *testing.T) {
	rs := NewReqSpan()
	rs.SetRequest(RequestID(1, 1), 1)
	rs.Admit(3)
	time.Sleep(time.Millisecond)
	rs.Mark(ReqQueued)
	rs.Mark(ReqDispatch)
	time.Sleep(time.Millisecond)
	rs.Mark(ReqExecute)
	rs.Finish(200)

	if rs.PhaseSum() != rs.Wall {
		t.Fatalf("phase sum %v != wall %v", rs.PhaseSum(), rs.Wall)
	}
	if rs.Wall <= 0 {
		t.Fatal("wall time not accumulated")
	}
	if rs.Status != 200 || rs.QueueDepth != 3 {
		t.Fatalf("status/depth = %d/%d", rs.Status, rs.QueueDepth)
	}
	if rs.Queued < time.Millisecond || rs.Execute < time.Millisecond {
		t.Fatalf("slept phases too short: queued %v execute %v", rs.Queued, rs.Execute)
	}
}

// TestReqSpanNilSafe pins the disabled path: every method on a nil span
// must no-op without panicking or allocating.
func TestReqSpanNilSafe(t *testing.T) {
	var rs *ReqSpan
	allocs := testing.AllocsPerRun(1000, func() {
		rs.SetRequest("x", 1)
		rs.Admit(4)
		rs.Mark(ReqQueued)
		rs.Mark(ReqDispatch)
		rs.Mark(ReqExecute)
		rs.Finish(200)
	})
	if allocs != 0 {
		t.Fatalf("nil ReqSpan path allocates %.1f times per cycle, want 0", allocs)
	}
}

// TestNilReqObsZeroAllocation extends the nil-Obs pinning to every hook
// the serving layer calls per request: span marks, SLO observation, the
// aggregator, the tracer, and the Enabled-guarded logger pattern.
func TestNilReqObsZeroAllocation(t *testing.T) {
	var (
		rs  *ReqSpan
		slo *SLOTracker
		agg *ReqSpanAgg
		tr  *Tracer
		lg  *Logger
	)
	allocs := testing.AllocsPerRun(1000, func() {
		rs.Admit(1)
		rs.Mark(ReqQueued)
		rs.Finish(200)
		slo.Observe(time.Millisecond, false)
		agg.Count()
		tr.Enabled()
		if lg.Enabled() {
			lg.Info("served", "status", 200)
		}
	})
	if allocs != 0 {
		t.Fatalf("nil request-obs path allocates %.1f times per request, want 0", allocs)
	}
}

// TestRequestIDDeterministic pins the ID derivation: same (seed, n) same
// ID, different seed or n different ID, format "r"+16 hex.
func TestRequestIDDeterministic(t *testing.T) {
	a, b := RequestID(7, 42), RequestID(7, 42)
	if a != b {
		t.Fatalf("same inputs, different IDs: %s vs %s", a, b)
	}
	if RequestID(8, 42) == a || RequestID(7, 43) == a {
		t.Fatal("seed or sequence change did not change the ID")
	}
	if len(a) != 17 || a[0] != 'r' {
		t.Fatalf("unexpected ID shape %q", a)
	}
	for _, c := range a[1:] {
		if !strings.ContainsRune("0123456789abcdef", c) {
			t.Fatalf("non-hex rune %q in %q", c, a)
		}
	}
}

// TestRequestIDMatchesSprintf holds the hand-written formatter to the
// fmt.Sprintf("r%016x", …) form it replaced, on the edge values of seed and
// n and on random pairs.
func TestRequestIDMatchesSprintf(t *testing.T) {
	ref := func(seed, n int64) string {
		x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(n)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return fmt.Sprintf("r%016x", x)
	}
	edges := []int64{0, -1, math.MaxInt64}
	for _, seed := range edges {
		for _, n := range edges {
			if got, want := RequestID(seed, n), ref(seed, n); got != want {
				t.Errorf("RequestID(%d, %d) = %q, want %q", seed, n, got, want)
			}
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 10_000; i++ {
		seed, n := int64(rng.Uint64()), int64(rng.Uint64())
		if got, want := RequestID(seed, n), ref(seed, n); got != want {
			t.Fatalf("RequestID(%d, %d) = %q, want %q", seed, n, got, want)
		}
	}
}

// TestReqSpanAggConcurrent adds spans from many goroutines and checks the
// summary is complete and deterministic.
func TestReqSpanAggConcurrent(t *testing.T) {
	agg := NewReqSpanAgg()
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				n := int64(w*per + i)
				agg.Add(ReqSpan{
					ID:      RequestID(1, n),
					Status:  200,
					Wall:    time.Duration(n+1) * time.Millisecond,
					Execute: time.Duration(n+1) * time.Millisecond,
				})
			}
		}(w)
	}
	wg.Wait()
	if agg.Count() != workers*per {
		t.Fatalf("count = %d, want %d", agg.Count(), workers*per)
	}
	sum := agg.Summarize(5)
	if sum.Count != workers*per || sum.OK != workers*per {
		t.Fatalf("summary count/ok = %d/%d", sum.Count, sum.OK)
	}
	if sum.Max != time.Duration(workers*per)*time.Millisecond {
		t.Fatalf("max = %v", sum.Max)
	}
	if len(sum.WorstK) != 5 || sum.WorstK[0].Wall < sum.WorstK[4].Wall {
		t.Fatalf("worstK not slowest-first: %v", sum.WorstK)
	}
	if sum.Phases.Execute != sum.TotalWall {
		t.Fatalf("attribution lost time: execute %v of %v", sum.Phases.Execute, sum.TotalWall)
	}
	// Shares over the execute-only population must put 100% on execute.
	for _, row := range sum.Attribution() {
		want := 0.0
		if row.Name == "execute" {
			want = 1.0
		}
		if row.Share != want {
			t.Fatalf("share[%s] = %g, want %g", row.Name, row.Share, want)
		}
	}
}

// TestSummarizeReqSpansEmpty checks the zero-value path.
func TestSummarizeReqSpansEmpty(t *testing.T) {
	sum := SummarizeReqSpans(nil, 10)
	if sum.Count != 0 || sum.Mean != 0 || len(sum.WorstK) != 0 {
		t.Fatalf("empty summary not zero: %+v", sum)
	}
	var agg *ReqSpanAgg
	agg.Add(ReqSpan{})
	if agg.Count() != 0 || agg.Spans() != nil {
		t.Fatal("nil aggregator must record nothing")
	}
}

// TestTracerReqSpanEmission checks the JSONL round trip of the new kind.
func TestTracerReqSpanEmission(t *testing.T) {
	var sb strings.Builder
	tr := NewTracer(&sb)
	rs := ReqSpan{ID: "r0001", Query: 9, Status: 200, Wall: time.Second, Execute: time.Second}
	tr.ReqSpanDone(rs)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"kind":"reqspan"`, `"id":"r0001"`, `"query":9`} {
		if !strings.Contains(out, want) {
			t.Fatalf("emission missing %q in %s", want, out)
		}
	}
}
