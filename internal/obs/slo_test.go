package obs

import (
	"math"
	"testing"
	"time"
)

// fakeClock steps a tracker's notion of time manually.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newTestTracker(target time.Duration, objective float64, window time.Duration) (*SLOTracker, *fakeClock) {
	tr := NewSLOTracker(target, objective, window)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	tr.now = clk.now
	return tr, clk
}

func TestSLOTrackerCompliance(t *testing.T) {
	tr, clk := newTestTracker(100*time.Millisecond, 0.9, time.Minute)
	for i := 0; i < 90; i++ {
		tr.Observe(10*time.Millisecond, false) // good
	}
	for i := 0; i < 10; i++ {
		tr.Observe(time.Second, false) // slow: bad
	}
	clk.advance(time.Second)
	snap := tr.Snapshot()
	if snap.Good != 90 || snap.Bad != 10 {
		t.Fatalf("good/bad = %d/%d, want 90/10", snap.Good, snap.Bad)
	}
	if math.Abs(snap.Compliance-0.9) > 1e-9 {
		t.Fatalf("compliance = %g, want 0.9", snap.Compliance)
	}
	// Bad fraction 0.1 against an allowance of 0.1: burning exactly at
	// budget, so burn rate 1 and nothing remaining.
	if math.Abs(snap.BurnRate-1) > 1e-9 || math.Abs(snap.BudgetRemaining) > 1e-9 {
		t.Fatalf("burn/remaining = %g/%g, want 1/0", snap.BurnRate, snap.BudgetRemaining)
	}
}

func TestSLOTrackerFailuresAreBad(t *testing.T) {
	tr, _ := newTestTracker(time.Second, 0.99, time.Minute)
	tr.Observe(time.Millisecond, true) // fast but failed
	snap := tr.Snapshot()
	if snap.Bad != 1 || snap.Good != 0 {
		t.Fatalf("failed request not counted bad: %+v", snap)
	}
	if snap.BurnRate < 99 {
		t.Fatalf("burn rate = %g, want 100 (all-bad window, 1%% budget)", snap.BurnRate)
	}
}

// TestSLOTrackerWindowExpiry checks that observations roll out of the
// window as the clock advances.
func TestSLOTrackerWindowExpiry(t *testing.T) {
	tr, clk := newTestTracker(100*time.Millisecond, 0.99, time.Minute)
	tr.Observe(time.Second, false) // bad
	if snap := tr.Snapshot(); snap.Bad != 1 {
		t.Fatalf("fresh observation missing: %+v", snap)
	}
	clk.advance(30 * time.Second)
	tr.Observe(time.Millisecond, false) // good, half a window later
	if snap := tr.Snapshot(); snap.Bad != 1 || snap.Good != 1 {
		t.Fatalf("mid-window: %+v", snap)
	}
	clk.advance(45 * time.Second) // first observation now outside 60s
	snap := tr.Snapshot()
	if snap.Bad != 0 || snap.Good != 1 {
		t.Fatalf("expiry failed: good/bad = %d/%d, want 1/0", snap.Good, snap.Bad)
	}
	clk.advance(10 * time.Minute) // everything expires, re-anchor path
	snap = tr.Snapshot()
	if snap.Good != 0 || snap.Bad != 0 || snap.Compliance != 1 {
		t.Fatalf("empty window: %+v", snap)
	}
}

// TestSLOTrackerRolloverPastWindow drives the re-anchor path hard:
// clock jumps strictly larger than the whole window must clear every
// bucket, re-anchor the head interval at the jump target, and leave the
// ring consistent for the next cycle of observations and expiries.
func TestSLOTrackerRolloverPastWindow(t *testing.T) {
	window := time.Minute
	tr, clk := newTestTracker(100*time.Millisecond, 0.99, window)

	// Fill several buckets across the window.
	for i := 0; i < 10; i++ {
		tr.Observe(time.Second, false) // bad
		clk.advance(window / sloBuckets)
	}
	if snap := tr.Snapshot(); snap.Bad != 10 {
		t.Fatalf("pre-jump window holds %d bad, want 10", snap.Bad)
	}

	// Jump far past the window (many times over): everything expires.
	clk.advance(7 * window)
	if snap := tr.Snapshot(); snap.Good != 0 || snap.Bad != 0 {
		t.Fatalf("post-jump window not empty: %+v", snap)
	}

	// The tracker must be correctly re-anchored at the jump target: a new
	// observation lives for exactly one more window, not less (a stale
	// headAt would expire it early) and not more.
	tr.Observe(time.Millisecond, false) // good
	clk.advance(window - window/sloBuckets)
	if snap := tr.Snapshot(); snap.Good != 1 {
		t.Fatalf("observation expired early after re-anchor: %+v", snap)
	}
	clk.advance(2 * window / sloBuckets)
	if snap := tr.Snapshot(); snap.Good != 0 {
		t.Fatalf("observation survived past the window after re-anchor: %+v", snap)
	}

	// Repeated over-window jumps interleaved with observations must never
	// leak counts between epochs.
	for epoch := 0; epoch < 3; epoch++ {
		tr.Observe(time.Second, true)
		clk.advance(window + time.Second)
	}
	if snap := tr.Snapshot(); snap.Good != 0 || snap.Bad != 0 {
		t.Fatalf("epoch leak after repeated over-window jumps: %+v", snap)
	}
}

func TestSLOTrackerDefaultsAndNil(t *testing.T) {
	if NewSLOTracker(0, 0.99, time.Minute) != nil {
		t.Fatal("non-positive target must disable tracking")
	}
	var tr *SLOTracker
	tr.Observe(time.Second, false) // must not panic
	if snap := tr.Snapshot(); snap != (SLOSnapshot{}) {
		t.Fatalf("nil snapshot not zero: %+v", snap)
	}
	def := NewSLOTracker(time.Second, 0, 0)
	if def.objective != 0.99 || def.window != time.Minute {
		t.Fatalf("defaults not applied: %+v", def)
	}
}
