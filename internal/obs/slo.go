package obs

import (
	"sync"
	"time"
)

// sloBuckets is the ring resolution: the window is divided into this many
// rotating buckets, so expiry granularity is window/sloBuckets.
const sloBuckets = 30

// SLOTracker tracks a latency service-level objective over a rolling
// wall-clock window: "Objective of requests finish under Target". Each
// observation lands in a ring bucket keyed by time; snapshots sum the
// live window, so compliance and error-budget burn reflect the recent
// past rather than the process lifetime — the signal traffic-management
// policies (shed, autoscale) need to act on.
//
// Burn rate follows the usual SRE definition: the observed bad fraction
// divided by the allowed bad fraction (1 − Objective). Burn 1.0 means the
// error budget is being consumed exactly as fast as it accrues; above 1.0
// the budget shrinks. BudgetRemaining is 1 − burn, negative once the
// window is over budget.
//
// All methods are nil-safe: a nil tracker records nothing and snapshots
// as zero, so the serving layer holds a possibly-nil pointer and pays one
// branch when SLO tracking is disabled.
type SLOTracker struct {
	target    time.Duration
	objective float64
	window    time.Duration
	step      time.Duration

	mu      sync.Mutex
	buckets [sloBuckets]struct{ good, bad int64 }
	head    int       // bucket currently receiving observations
	headAt  time.Time // start of the head bucket's interval
	started bool

	now func() time.Time // injectable for tests
}

// NewSLOTracker creates a tracker for "objective of requests under
// target, over window". A non-positive target returns nil (tracking
// disabled); objective defaults to 0.99 when outside (0, 1); window
// defaults to one minute.
func NewSLOTracker(target time.Duration, objective float64, window time.Duration) *SLOTracker {
	if target <= 0 {
		return nil
	}
	if objective <= 0 || objective >= 1 {
		objective = 0.99
	}
	if window <= 0 {
		window = time.Minute
	}
	return &SLOTracker{
		target:    target,
		objective: objective,
		window:    window,
		step:      window / sloBuckets,
		now:       time.Now,
	}
}

// rotate advances the ring so head covers the interval containing now,
// clearing buckets that fell out of the window. Callers hold mu.
func (t *SLOTracker) rotate(now time.Time) {
	if !t.started {
		t.started = true
		t.headAt = now
		return
	}
	steps := int(now.Sub(t.headAt) / t.step)
	if steps <= 0 {
		return
	}
	if steps > sloBuckets {
		steps = sloBuckets
		t.headAt = now // the whole window expired; re-anchor
	} else {
		t.headAt = t.headAt.Add(time.Duration(steps) * t.step)
	}
	for i := 0; i < steps; i++ {
		t.head = (t.head + 1) % sloBuckets
		t.buckets[t.head] = struct{ good, bad int64 }{}
	}
}

// Observe records one finished request: good when it succeeded within the
// target latency, bad otherwise (slow or failed). Nil-safe no-op.
func (t *SLOTracker) Observe(latency time.Duration, failed bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rotate(t.now())
	if !failed && latency <= t.target {
		t.buckets[t.head].good++
	} else {
		t.buckets[t.head].bad++
	}
	t.mu.Unlock()
}

// SLOSnapshot is a point-in-time view of the rolling window, shaped for
// /varz and the jaws_slo_* metrics.
type SLOSnapshot struct {
	// Target is the latency objective threshold.
	Target string `json:"target"`
	// Objective is the required good fraction (e.g. 0.99).
	Objective float64 `json:"objective"`
	// Window is the rolling measurement window.
	Window string `json:"window"`
	// Good and Bad count observations in the live window.
	Good int64 `json:"good"`
	Bad  int64 `json:"bad"`
	// Compliance is Good/(Good+Bad); 1 when the window is empty.
	Compliance float64 `json:"compliance"`
	// BurnRate is the error-budget burn: bad fraction / (1 − objective).
	BurnRate float64 `json:"burn_rate"`
	// BudgetRemaining is 1 − BurnRate (negative when over budget).
	BudgetRemaining float64 `json:"budget_remaining"`
}

// Snapshot sums the live window. A nil tracker returns the zero snapshot.
func (t *SLOTracker) Snapshot() SLOSnapshot {
	if t == nil {
		return SLOSnapshot{}
	}
	t.mu.Lock()
	t.rotate(t.now())
	var good, bad int64
	for _, b := range t.buckets {
		good += b.good
		bad += b.bad
	}
	t.mu.Unlock()

	snap := SLOSnapshot{
		Target:     t.target.String(),
		Objective:  t.objective,
		Window:     t.window.String(),
		Good:       good,
		Bad:        bad,
		Compliance: 1,
	}
	if total := good + bad; total > 0 {
		snap.Compliance = float64(good) / float64(total)
		snap.BurnRate = (float64(bad) / float64(total)) / (1 - t.objective)
	}
	snap.BudgetRemaining = 1 - snap.BurnRate
	return snap
}
