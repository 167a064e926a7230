package experiments

import (
	"slices"
	"strings"
	"testing"

	"jaws/internal/system"
)

func TestFig8Shape(t *testing.T) {
	r := Fig8(TestScale())
	if r.Hist.Count() == 0 {
		t.Fatal("empty histogram")
	}
	// The 1–30 minute bucket must dominate (≈63 % in the paper).
	if frac := float64(r.Hist.Buckets()[1]) / float64(r.Hist.Count()); frac < 0.4 {
		t.Fatalf("1–30min fraction = %.2f, want the majority bucket", frac)
	}
	if len(r.Table.Rows) != 6 {
		t.Fatalf("table rows = %d", len(r.Table.Rows))
	}
}

func TestFig9Shape(t *testing.T) {
	// Fig. 9's start/end clustering needs the full 31-step range to show;
	// generation is cheap, so use the default step count here.
	s := TestScale()
	s.Steps = 31
	s.Jobs = 200
	r := Fig9(s)
	if len(r.Counts) != s.Steps {
		t.Fatalf("counts for %d steps, want %d", len(r.Counts), s.Steps)
	}
	total := 0
	for _, c := range r.Counts {
		total += c
	}
	// Start cluster hotter than the middle.
	mid := r.Counts[s.Steps/2]
	if r.Counts[0] <= mid {
		t.Fatalf("step 0 (%d) not hotter than middle (%d)", r.Counts[0], mid)
	}
	if strings.TrimSpace(r.Table.String()) == "" {
		t.Fatal("empty rendering")
	}
}

func TestFig10Ordering(t *testing.T) {
	r, err := Fig10(TestScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	by := map[system.Scheduler]float64{}
	for _, row := range r.Rows {
		if row.Throughput <= 0 {
			t.Fatalf("%v throughput %.3f", row.Algorithm, row.Throughput)
		}
		by[row.Algorithm] = row.Throughput
	}
	// The paper's ordering: JAWS2 > JAWS1 > LifeRaft2 > LifeRaft1 ≥ NoShare.
	// At test scale require the headline relations.
	if by[system.SchedJAWS2] <= by[system.SchedNoShare] {
		t.Fatalf("JAWS2 (%.3f) ≤ NoShare (%.3f)", by[system.SchedJAWS2], by[system.SchedNoShare])
	}
	if by[system.SchedLifeRaft2] <= by[system.SchedNoShare] {
		t.Fatalf("LifeRaft2 (%.3f) ≤ NoShare (%.3f)", by[system.SchedLifeRaft2], by[system.SchedNoShare])
	}
}

func TestFig11Sweep(t *testing.T) {
	r, err := Fig11(TestScale(), []float64{0.5, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 8 {
		t.Fatalf("points = %d, want 2 speedups × 4 algorithms", len(r.Points))
	}
	// Saturation must raise JAWS2 throughput.
	var lo, hi float64
	for _, p := range r.Points {
		if p.Algorithm == system.SchedJAWS2 {
			if p.SpeedUp == 0.5 {
				lo = p.Throughput
			} else {
				hi = p.Throughput
			}
		}
	}
	if hi <= lo {
		t.Fatalf("JAWS2 did not scale with saturation: %.3f → %.3f", lo, hi)
	}
}

func TestFig12Sweep(t *testing.T) {
	r, err := Fig12(TestScale(), []int{1, 5, 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3 {
		t.Fatalf("points = %d", len(r.Points))
	}
	if r.LifeRaft2Baseline <= 0 {
		t.Fatal("no baseline measured")
	}
	for _, p := range r.Points {
		if p.Throughput <= 0 {
			t.Fatalf("k=%d throughput %.3f", p.K, p.Throughput)
		}
	}
}

// Table I's claim (§V.B): the two workload-aware policies beat the LRU-K
// baseline, with a higher hit ratio and fewer virtual seconds per query.
func TestTable1(t *testing.T) {
	r, err := Table1(TestScale())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, row := range r.Rows {
		names = append(names, row.Policy)
		if row.CacheHit < 0 || row.CacheHit > 1 {
			t.Fatalf("%s hit ratio %.2f", row.Policy, row.CacheHit)
		}
		if row.SecPerQry <= 0 {
			t.Fatalf("%s sec/qry %.3f", row.Policy, row.SecPerQry)
		}
	}
	if want := []string{"LRU-K", "SLRU", "URC"}; !slices.Equal(names, want) {
		t.Fatalf("rows %v, want %v", names, want)
	}
	lruk := r.Rows[0]
	for _, row := range r.Rows[1:] {
		if row.CacheHit <= lruk.CacheHit || row.SecPerQry >= lruk.SecPerQry {
			t.Errorf("%s: %.3f hits, %.4f s/qry; want above LRU-K's %.3f hits and below its %.4f s/qry",
				row.Policy, row.CacheHit, row.SecPerQry, lruk.CacheHit, lruk.SecPerQry)
		}
	}
}

func TestJobID(t *testing.T) {
	r := JobID(TestScale())
	if r.Accuracy < 0.85 {
		t.Fatalf("accuracy %.3f below the 'highly accurate' bar", r.Accuracy)
	}
	if r.QueriesInJobs < 0.8 {
		t.Fatalf("only %.2f of queries in inferred jobs", r.QueriesInJobs)
	}
}

func TestAlgorithmString(t *testing.T) {
	for _, a := range append(AllAlgorithms(), system.Scheduler(99)) {
		if a.String() == "" {
			t.Fatal("empty algorithm name")
		}
	}
}

func TestAblations(t *testing.T) {
	r, err := Ablations(TestScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 configurations", len(r.Rows))
	}
	base := r.Rows[0]
	if base.Throughput <= 0 {
		t.Fatal("baseline has no throughput")
	}
	for _, row := range r.Rows {
		if row.Throughput <= 0 || row.Reads == 0 {
			t.Fatalf("%s: empty measurements %+v", row.Name, row)
		}
	}
	// The prefetch row must actually prefetch; the QoS row must track
	// deadlines.
	var sawPrefetch, sawQoS bool
	for _, row := range r.Rows {
		if row.Prefetched > 0 {
			sawPrefetch = true
		}
		if row.DeadlineMisses >= 0 {
			sawQoS = true
		}
	}
	if !sawPrefetch {
		t.Fatal("prefetch ablation idle")
	}
	if !sawQoS {
		t.Fatal("QoS ablation did not report deadlines")
	}
	if strings.TrimSpace(r.Table.String()) == "" {
		t.Fatal("empty table")
	}
}

func TestAlphaDynamics(t *testing.T) {
	r, err := AlphaDynamics(TestScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 6 {
		t.Fatalf("only %d adaptation runs", len(r.Points))
	}
	for _, p := range r.Points {
		if p.Alpha < 0 || p.Alpha > 1 {
			t.Fatalf("α out of bounds: %+v", p)
		}
	}
	// Under the saturated bursts the controller must reach the contention
	// end of the dial.
	if r.MinAlphaBurst > 0.2 {
		t.Fatalf("α never dropped under saturation: min %.2f", r.MinAlphaBurst)
	}
	if r.Chart == "" {
		t.Fatal("no chart rendered")
	}
}
