package workload

import (
	"bytes"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"time"

	"jaws/internal/geom"
)

// fingerprint hashes every field of a generated trace in a fixed order.
// It is the byte-identity oracle for the arrival-process refactor: the
// golden values below were captured from the pre-refactor generator
// (before Arrivals existed), so these tests fail if the fig8 path ever
// consumes the rng differently or rounds arrivals differently.
func fingerprint(w *Workload) uint64 {
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }
	put(uint64(len(w.Jobs)))
	for _, j := range w.Jobs {
		put(uint64(j.ID))
		put(uint64(j.User))
		put(uint64(j.Type))
		put(uint64(j.ThinkTime))
		put(uint64(len(j.Queries)))
		for _, q := range j.Queries {
			put(uint64(q.ID))
			put(uint64(q.JobID))
			put(uint64(q.Seq))
			put(uint64(q.Step))
			put(uint64(q.Kernel))
			put(uint64(q.Arrival))
			put(uint64(len(q.Points)))
			for _, p := range q.Points {
				putF(p.X)
				putF(p.Y)
				putF(p.Z)
			}
		}
	}
	put(uint64(len(w.Records)))
	for _, r := range w.Records {
		put(uint64(r.QueryID))
		put(uint64(r.User))
		put(uint64(r.Step))
		put(uint64(r.NumPoints))
		put(uint64(r.Submitted))
		put(uint64(r.TrueJobID))
	}
	for _, c := range w.StepAccess {
		put(uint64(c))
	}
	for _, d := range w.Durations {
		put(uint64(d))
	}
	return h.Sum64()
}

// evalConfig mirrors experiments.DefaultScale()'s workload at SpeedUp 1 —
// the trace behind BENCH_main.json.
func evalConfig() Config {
	return Config{
		Seed:           42,
		Space:          geom.Space{GridSide: 256, AtomSide: 32},
		Steps:          31,
		Jobs:           500,
		PointsPerQuery: 60,
		OrderedFrac:    0.7,
		LoneQueryFrac:  0.05,
		SpeedUp:        1,
		MeanJobGap:     100 * time.Millisecond,
		ThinkTime:      20 * time.Millisecond,
		QueryScale:     5,
		Hotspots:       6,
	}
}

// TestFig8Golden pins the fig8 trace to the pre-refactor generator's
// exact output. If this fails, every golden bench artifact in the repo is
// invalidated — fix the rng draw order, do not update the hashes.
func TestFig8Golden(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"default", Config{Seed: 1}, 0x5eca5ff34623e9c2},
		{"eval-scale", evalConfig(), 0x0dd627108eee7114},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := fingerprint(Generate(tc.cfg)); got != tc.want {
				t.Fatalf("fig8 trace diverged from pre-refactor generator: fingerprint %#x, want %#x", got, tc.want)
			}
			// Explicit Fig8() must be the same process as nil.
			cfg := tc.cfg
			cfg.Arrivals = Fig8()
			if got := fingerprint(Generate(cfg)); got != tc.want {
				t.Fatalf("explicit Fig8() diverged from nil Arrivals: fingerprint %#x, want %#x", got, tc.want)
			}
		})
	}
}

// matrixConfigs enumerates one config per arrival process, with the
// query-class knobs on so determinism covers cutouts and derivative
// chains too.
func matrixConfigs(seed int64) []Config {
	base := Config{
		Seed:           seed,
		Steps:          8,
		Jobs:           60,
		PointsPerQuery: 16,
		OrderedFrac:    0.7,
		LoneQueryFrac:  0.05,
		SpeedUp:        1,
		MeanJobGap:     200 * time.Millisecond,
		ThinkTime:      20 * time.Millisecond,
		QueryScale:     25,
		Hotspots:       3,
		BoxFrac:        0.2,
		BoxStride:      8,
		DerivFrac:      0.3,
		DerivChain:     3,
	}
	procs := []Arrivals{
		nil, // fig8
		Poisson{},
		NewDiurnal(Poisson{}, 30*time.Second, 0.8),
		Flows{},
	}
	out := make([]Config, len(procs))
	for i, p := range procs {
		c := base
		c.Arrivals = p
		out[i] = c
	}
	return out
}

func traceBytes(t *testing.T, cfg Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, Generate(cfg), false); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// TestArrivalsSeedDeterminism checks the matrix-wide contract: for every
// arrival process, the same seed yields a byte-identical serialized
// trace, and different seeds diverge.
func TestArrivalsSeedDeterminism(t *testing.T) {
	for _, cfg := range matrixConfigs(7) {
		name := "fig8"
		if cfg.Arrivals != nil {
			name = cfg.Arrivals.Name()
		}
		t.Run(name, func(t *testing.T) {
			a := traceBytes(t, cfg)
			b := traceBytes(t, cfg)
			if !bytes.Equal(a, b) {
				t.Fatalf("same seed produced different trace bytes (%d vs %d bytes)", len(a), len(b))
			}
			other := cfg
			other.Seed = cfg.Seed + 1
			if bytes.Equal(a, traceBytes(t, other)) {
				t.Fatalf("different seeds produced identical traces")
			}
		})
	}
}

// constGap is a degenerate inner process for envelope tests: every gap
// is exactly the mean.
type constGap struct{}

func (constGap) Name() string { return "const" }
func (constGap) Stream() GapFunc {
	return func(_ *rand.Rand, mean, _ time.Duration) time.Duration { return mean }
}

// TestPoissonMeanGap checks the memoryless process statistically on a
// fixed seed: the empirical mean inter-arrival gap is within 3 % of the
// configured mean.
func TestPoissonMeanGap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gaps := Poisson{}.Stream()
	const mean = 100 * time.Millisecond
	const n = 50_000
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += gaps(rng, mean, 0)
	}
	got := float64(sum) / n / float64(mean)
	if math.Abs(got-1) > 0.03 {
		t.Fatalf("Poisson empirical mean gap = %.4f × mean, want 1 ± 0.03", got)
	}
}

// TestOnOffDutyCycle checks the bursty process's calibration on a fixed
// seed: mean gap factor PLull·Lull + (1−PLull)·Burst, with a
// burst-dominated median (most gaps far below the mean).
func TestOnOffDutyCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	o := Fig8().(OnOff)
	gaps := o.Stream()
	const mean = 100 * time.Millisecond
	const n = 50_000
	samples := make([]float64, n)
	var sum float64
	for i := range samples {
		g := float64(gaps(rng, mean, 0)) / float64(mean)
		samples[i] = g
		sum += g
	}
	wantMean := o.PLull*o.LullFactor + (1-o.PLull)*o.BurstFactor // 0.9 for fig8
	if got := sum / n; math.Abs(got-wantMean) > 0.05*wantMean {
		t.Fatalf("on/off empirical mean gap = %.4f × mean, want %.2f ± 5%%", got, wantMean)
	}
	// The duty cycle: 75 % of draws are burst gaps around 0.2× the mean,
	// so well over half the samples sit below 0.5× the mean.
	below := 0
	for _, g := range samples {
		if g < 0.5 {
			below++
		}
	}
	if frac := float64(below) / n; frac < 0.6 {
		t.Fatalf("on/off burst share: %.3f of gaps < 0.5× mean, want ≥ 0.6", frac)
	}
}

// TestDiurnalEnvelope pins the rate envelope analytically using a
// constant inner process: at the peak phase the gap shrinks by 1/(1+A),
// at the trough it stretches by 1/(1−A), so the peak-to-trough rate
// ratio is (1+A)/(1−A).
func TestDiurnalEnvelope(t *testing.T) {
	const A = 0.6
	period := 100 * time.Second
	d := NewDiurnal(constGap{}, period, A)
	gaps := d.Stream()
	rng := rand.New(rand.NewSource(1))
	const mean = time.Second

	peak := gaps(rng, mean, period/4)     // sin = +1
	trough := gaps(rng, mean, 3*period/4) // sin = −1

	gotRatio := float64(trough) / float64(peak)
	wantRatio := (1 + A) / (1 - A)
	if math.Abs(gotRatio-wantRatio)/wantRatio > 1e-6 {
		t.Fatalf("diurnal peak/trough rate ratio = %.6f, want %.6f", gotRatio, wantRatio)
	}
	if peak >= mean || trough <= mean {
		t.Fatalf("envelope direction wrong: peak gap %v (want < %v), trough gap %v (want > %v)", peak, mean, trough, mean)
	}
}

// TestFlowsShape checks the session process: intra-flow gaps are much
// shorter than flow boundaries, and both appear.
func TestFlowsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	gaps := Flows{}.Stream()
	const mean = 100 * time.Millisecond
	const n = 20_000
	short, long := 0, 0
	for i := 0; i < n; i++ {
		g := float64(gaps(rng, mean, 0)) / float64(mean)
		if g < 1 {
			short++
		} else {
			long++
		}
	}
	if short == 0 || long == 0 {
		t.Fatalf("flows process degenerate: %d short, %d long gaps", short, long)
	}
	// Mean flow length 4 → roughly 3 intra-flow gaps per boundary gap.
	if frac := float64(short) / n; frac < 0.5 || frac > 0.95 {
		t.Fatalf("intra-flow gap share %.3f, want within (0.5, 0.95)", frac)
	}
}
