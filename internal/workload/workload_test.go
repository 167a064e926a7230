package workload

import (
	"testing"
	"time"

	"jaws/internal/job"
)

// smallConfig is the evaluation trace (Generate's defaults) cut to 200 jobs.
func smallConfig() Config { return Config{Seed: 1, Jobs: 200} }

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallConfig())
	b := Generate(smallConfig())
	if a.TotalQueries() != b.TotalQueries() {
		t.Fatalf("query counts differ: %d vs %d", a.TotalQueries(), b.TotalQueries())
	}
	for i := range a.Jobs {
		ja, jb := a.Jobs[i], b.Jobs[i]
		if ja.Type != jb.Type || len(ja.Queries) != len(jb.Queries) {
			t.Fatalf("job %d differs across runs", i)
		}
		for k := range ja.Queries {
			qa, qb := ja.Queries[k], jb.Queries[k]
			if qa.Step != qb.Step || len(qa.Points) != len(qb.Points) || qa.Arrival != qb.Arrival {
				t.Fatalf("job %d query %d differs", i, k)
			}
			if len(qa.Points) > 0 && qa.Points[0] != qb.Points[0] {
				t.Fatalf("job %d query %d points differ", i, k)
			}
		}
	}
	c := smallConfig()
	c.Seed = 2
	other := Generate(c)
	if other.TotalQueries() == a.TotalQueries() && other.Jobs[0].Queries[0].Points[0] == a.Jobs[0].Queries[0].Points[0] {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestGenerateStructuralValidity(t *testing.T) {
	w := Generate(smallConfig())
	if len(w.Jobs) != 200 {
		t.Fatalf("generated %d jobs", len(w.Jobs))
	}
	var qids = map[int64]bool{}
	for _, j := range w.Jobs {
		if err := j.Validate(); err != nil {
			t.Fatalf("invalid job: %v", err)
		}
		if qids[j.ID] {
			t.Fatalf("duplicate job ID %d", j.ID)
		}
		qids[j.ID] = true
		for _, q := range j.Queries {
			if q.Step < 0 || q.Step >= 31 {
				t.Fatalf("step %d out of range", q.Step)
			}
			if len(q.Points) == 0 {
				t.Fatal("query with no points")
			}
		}
		// First query always has an arrival time; batched queries all do.
		if j.Queries[0].Arrival < 0 {
			t.Fatal("negative arrival")
		}
		if j.Type == job.Batched {
			for _, q := range j.Queries {
				if q.Arrival < j.Queries[0].Arrival {
					t.Fatal("batched query arrives before job start")
				}
			}
		}
	}
}

func TestArrivalsMonotoneAcrossJobs(t *testing.T) {
	w := Generate(smallConfig())
	prev := time.Duration(-1)
	for _, j := range w.Jobs {
		if j.Queries[0].Arrival < prev {
			t.Fatal("job arrivals not monotone")
		}
		prev = j.Queries[0].Arrival
	}
}

func TestMostQueriesBelongToJobs(t *testing.T) {
	w := Generate(smallConfig())
	lone, total := 0, 0
	for _, j := range w.Jobs {
		total += len(j.Queries)
		if len(j.Queries) == 1 {
			lone++
		}
	}
	// §VI.A: over 95 % of queries belong to (multi-query) jobs.
	if frac := float64(total-lone) / float64(total); frac < 0.95 {
		t.Fatalf("only %.1f%% of queries in jobs, want ≥95%%", frac*100)
	}
}

func TestFig8DurationMix(t *testing.T) {
	cfg := smallConfig()
	cfg.Jobs = 2000
	w := Generate(cfg)
	in1to30 := 0
	for _, d := range w.Durations {
		if d >= time.Minute && d <= 30*time.Minute {
			in1to30++
		}
	}
	frac := float64(in1to30) / float64(len(w.Durations))
	// Paper: 63 % of jobs persist 1–30 minutes. Allow generous slack.
	if frac < 0.45 || frac > 0.80 {
		t.Fatalf("1–30 min fraction = %.2f, want ≈0.63", frac)
	}
}

func TestFig9StepSkew(t *testing.T) {
	cfg := smallConfig()
	cfg.Jobs = 2000
	w := Generate(cfg)
	total := 0
	for _, c := range w.StepAccess {
		total += c
	}
	// The dozen most-accessed steps should carry the majority of queries
	// (70 % in the paper).
	counts := append([]int(nil), w.StepAccess...)
	for i := 0; i < len(counts); i++ {
		for j := i + 1; j < len(counts); j++ {
			if counts[j] > counts[i] {
				counts[i], counts[j] = counts[j], counts[i]
			}
		}
	}
	top12 := 0
	for i := 0; i < 12 && i < len(counts); i++ {
		top12 += counts[i]
	}
	if frac := float64(top12) / float64(total); frac < 0.55 {
		t.Fatalf("top-12 steps carry %.2f of queries, want ≥0.55 (paper: 0.70)", frac)
	}
	// Start/end clustering: first and last steps individually hot.
	if w.StepAccess[0] <= total/len(w.StepAccess) {
		t.Fatal("step 0 not hotter than uniform")
	}
	if w.StepAccess[len(w.StepAccess)-1] <= total/len(w.StepAccess)/2 {
		t.Fatal("final step not clustered")
	}
}

func TestSpeedUpCompressesArrivals(t *testing.T) {
	slow := Generate(smallConfig())
	fast := smallConfig()
	fast.SpeedUp = 4
	w := Generate(fast)
	slowSpan := slow.Jobs[len(slow.Jobs)-1].Queries[0].Arrival
	fastSpan := w.Jobs[len(w.Jobs)-1].Queries[0].Arrival
	ratio := float64(slowSpan) / float64(fastSpan)
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("speed-up 4 compressed arrivals by %.2f, want ≈4", ratio)
	}
}

func TestOrderedFraction(t *testing.T) {
	cfg := smallConfig()
	cfg.Jobs = 1000
	w := Generate(cfg)
	ordered, multi := 0, 0
	for _, j := range w.Jobs {
		if len(j.Queries) > 1 {
			multi++
			if j.Type == job.Ordered {
				ordered++
			}
		}
	}
	frac := float64(ordered) / float64(multi)
	if frac < 0.6 || frac > 0.8 {
		t.Fatalf("ordered fraction = %.2f, want ≈0.7", frac)
	}
}

func TestTraceRecordsCarryGroundTruth(t *testing.T) {
	w := Generate(smallConfig())
	if len(w.Records) != w.TotalQueries() {
		t.Fatalf("%d records for %d queries", len(w.Records), w.TotalQueries())
	}
	for _, r := range w.Records {
		if r.TrueJobID == 0 {
			t.Fatal("record without ground-truth job")
		}
		if r.NumPoints == 0 {
			t.Fatal("record without points")
		}
	}
}

func TestJobIdentificationAccuracyOnGeneratedTrace(t *testing.T) {
	// End-to-end reproduction of the §IV.A claim on the synthetic log.
	cfg := smallConfig()
	cfg.Jobs = 400
	w := Generate(cfg)
	assignment := job.Identify(w.Records, job.DefaultIdentifyParams())
	acc := job.Accuracy(w.Records, assignment)
	if acc < 0.90 {
		t.Fatalf("identification accuracy %.3f on generated trace, want ≥0.90", acc)
	}
}

func TestGenerateDefaultsApplied(t *testing.T) {
	w := Generate(Config{})
	if len(w.Jobs) == 0 || w.TotalQueries() == 0 {
		t.Fatal("zero-value config produced empty workload")
	}
}

func BenchmarkGenerate1kJobs(b *testing.B) {
	var cfg Config
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		Generate(cfg)
	}
}
