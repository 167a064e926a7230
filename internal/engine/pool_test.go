package engine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countWork counts how often each unit is evaluated.
type countWork []int32

func (c countWork) evalSpan(lo, hi int) {
	for i := lo; i < hi; i++ {
		atomic.AddInt32(&c[i], 1)
	}
}

// evenCuts splits n units into at most spans non-empty consecutive spans.
func evenCuts(n, spans int) []int {
	cuts := []int{0}
	for i := 1; i < spans; i++ {
		if c := i * n / spans; c > cuts[len(cuts)-1] {
			cuts = append(cuts, c)
		}
	}
	if n > cuts[len(cuts)-1] {
		cuts = append(cuts, n)
	}
	return cuts
}

// Every index must be executed exactly once per run call.
func TestComputePoolExactlyOnce(t *testing.T) {
	p := newComputePool(4)
	defer p.close()
	var done sync.WaitGroup
	for trial := 0; trial < 50; trial++ {
		n := trial % 17
		counts := make(countWork, n)
		p.run(counts, evenCuts(n, 1+trial%6), &done)
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("trial %d: index %d executed %d times", trial, i, c)
			}
		}
	}
}

// Concurrent batch evaluation: several goroutines share one pool, each
// fanning out its own work; every unit must run exactly once and run must
// not return before its own units finished. Run with -race (make
// race-obs) this doubles as the data-race check on the pool.
func TestComputePoolConcurrentStress(t *testing.T) {
	p := newComputePool(3)
	defer p.close()
	const submitters = 8
	const rounds = 40
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var done sync.WaitGroup
			for r := 0; r < rounds; r++ {
				n := (s+r)%13 + 1
				counts := make(countWork, n)
				p.run(counts, evenCuts(n, 1+r%5), &done)
				// run returned: all units of THIS call must be complete,
				// regardless of other submitters' in-flight work.
				for i, c := range counts {
					if c != 1 {
						t.Errorf("submitter %d round %d: index %d executed %d times", s, r, i, c)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
}

// A zero-sized run is a no-op and must not deadlock or touch workers.
func TestComputePoolEmptyRun(t *testing.T) {
	p := newComputePool(2)
	defer p.close()
	var done sync.WaitGroup
	p.run(countWork(nil), evenCuts(0, 3), &done)
}

// BenchmarkComputePoolHandOff is the price of fanning a batch out to one
// other goroutine and waiting for it, with no work in either span: what
// minSpanSamples has to repay (see DESIGN.md, allocation discipline).
// "spinning" calls back to back, so the worker never parks; "parked"
// leaves it idle between calls, as the engine does between batches, and
// times the calls alone (handoff-ns; ns/op there includes the idling).
func BenchmarkComputePoolHandOff(b *testing.B) {
	p := newComputePool(1)
	defer p.close()
	var done sync.WaitGroup
	var work spanWork = make(countWork, 2)
	cuts := []int{0, 1, 2}
	b.Run("spinning", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.run(work, cuts, &done)
		}
	})
	b.Run("parked", func(b *testing.B) {
		var total time.Duration
		for i := 0; i < b.N; i++ {
			time.Sleep(50 * time.Microsecond)
			start := time.Now()
			p.run(work, cuts, &done)
			total += time.Since(start)
		}
		b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "handoff-ns")
	})
}
