package workload

import (
	"math"
	"math/rand"
	"time"
)

// Arrivals is a seeded inter-job arrival process: the knob that turns the
// single calibrated Fig. 8/9 trace into a workload matrix. A process is a
// description, not a run — Stream returns a fresh draw function per
// generation, so one Arrivals value can live in the scenario registry and
// be reused across Generate calls without leaking state between traces.
//
// Determinism contract: a stream's only randomness source is the rng it
// is handed (the generator's seeded source), so for a fixed Config the
// trace is byte-identical across runs and machines.
type Arrivals interface {
	// Name identifies the process in scenario listings and artifacts.
	Name() string
	// Stream starts one generation's gap sequence.
	Stream() GapFunc
}

// GapFunc draws the next inter-job gap at unit speed-up. mean is the
// configured MeanJobGap; now is the previous job's arrival instant on the
// (post-speed-up) trace timeline, which rate-envelope processes use as
// their phase. Generate divides the returned gap by Config.SpeedUp.
type GapFunc func(rng *rand.Rand, mean, now time.Duration) time.Duration

// OnOff is the bursty on/off process: with probability PLull the next gap
// is a lull (exponential around LullFactor × mean), otherwise a burst gap
// (exponential around BurstFactor × mean). Fig8() is the calibrated
// instance the original generator hard-coded.
type OnOff struct {
	PLull      float64
	LullFactor float64
	// BurstFactor scales the within-burst gaps.
	BurstFactor float64
}

// Fig8 is the calibrated bursty process of the paper's trace (§VI.A):
// a quarter of the gaps are lulls at 3× the mean, the rest burst gaps at
// 0.2× the mean. Generate with nil Config.Arrivals uses exactly this
// process, and it consumes the generator's rng in exactly the order the
// pre-refactor code did, so the fig8 trace is byte-identical to the
// original single-trace generator's output (pinned by golden tests).
func Fig8() Arrivals { return OnOff{PLull: 0.25, LullFactor: 3, BurstFactor: 0.2} }

// Name implements Arrivals.
func (o OnOff) Name() string { return "onoff" }

// Stream implements Arrivals. Draw order (one Float64, one ExpFloat64 per
// job) is load-bearing: it must match the pre-refactor generator so the
// fig8 process reproduces the historical trace bytes.
func (o OnOff) Stream() GapFunc {
	return func(rng *rand.Rand, mean, now time.Duration) time.Duration {
		if rng.Float64() < o.PLull {
			return time.Duration(rng.ExpFloat64() * float64(mean) * o.LullFactor)
		}
		return time.Duration(rng.ExpFloat64() * float64(mean) * o.BurstFactor)
	}
}

// Poisson is the memoryless process: exponential gaps around the mean,
// the classical open-system arrival model.
type Poisson struct{}

// Name implements Arrivals.
func (Poisson) Name() string { return "poisson" }

// Stream implements Arrivals.
func (Poisson) Stream() GapFunc {
	return func(rng *rand.Rand, mean, now time.Duration) time.Duration {
		return time.Duration(rng.ExpFloat64() * float64(mean))
	}
}

// Diurnal modulates an inner process with a sinusoidal rate envelope:
// rate(t) = base × (1 + Amplitude·sin(2πt/Period)), so gaps shrink at the
// peak and stretch in the trough. The peak-to-trough rate ratio is
// (1+A)/(1−A); Period is measured on the trace timeline. It composes: any
// process can carry the envelope.
type Diurnal struct {
	Inner     Arrivals
	Period    time.Duration
	Amplitude float64 // in [0, 1)
}

// NewDiurnal wraps inner (nil means Poisson) with the given envelope.
func NewDiurnal(inner Arrivals, period time.Duration, amplitude float64) Diurnal {
	if inner == nil {
		inner = Poisson{}
	}
	return Diurnal{Inner: inner, Period: period, Amplitude: amplitude}
}

// Name implements Arrivals.
func (d Diurnal) Name() string { return "diurnal(" + d.Inner.Name() + ")" }

// Stream implements Arrivals.
func (d Diurnal) Stream() GapFunc {
	inner := d.Inner.Stream()
	return func(rng *rand.Rand, mean, now time.Duration) time.Duration {
		gap := inner(rng, mean, now)
		phase := 2 * math.Pi * float64(now) / float64(d.Period)
		env := 1 + float64(d.Amplitude*math.Sin(phase))
		if env < 1e-6 {
			env = 1e-6
		}
		return time.Duration(float64(gap) / env)
	}
}

// Flows models multi-step user flows: a scientist arrives, submits a flow
// of MeanFlow-ish related jobs in quick succession (gaps around
// WithinFactor × mean), then leaves; the next flow begins after a long
// gap (around BetweenFactor × mean). This is the closed-session shape the
// serving layer sees from interactive users, as opposed to the open
// Poisson stream.
type Flows struct {
	// MeanFlow is the mean number of jobs per flow (≥1; 0 defaults to 4).
	MeanFlow int
	// WithinFactor scales intra-flow gaps; 0 defaults to 0.1.
	WithinFactor float64
	// BetweenFactor scales flow-to-flow gaps; 0 defaults to 4.
	BetweenFactor float64
}

// Name implements Arrivals.
func (Flows) Name() string { return "flows" }

// Stream implements Arrivals. The per-generation flow state (jobs left in
// the current flow) lives in the closure, never in the Flows value.
func (f Flows) Stream() GapFunc {
	meanFlow := f.MeanFlow
	if meanFlow < 1 {
		meanFlow = 4
	}
	within := f.WithinFactor
	if within == 0 {
		within = 0.1
	}
	between := f.BetweenFactor
	if between == 0 {
		between = 4
	}
	left := 0
	return func(rng *rand.Rand, mean, now time.Duration) time.Duration {
		if left <= 0 {
			// New flow: its length is geometric-ish around the mean
			// (1 + Intn keeps it ≥1 and cheap to reason about).
			left = 1 + rng.Intn(2*meanFlow-1)
			left--
			return time.Duration(rng.ExpFloat64() * float64(mean) * between)
		}
		left--
		return time.Duration(rng.ExpFloat64() * float64(mean) * within)
	}
}
