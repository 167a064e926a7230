package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryAndMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", 1, 2)
	c.Inc()
	c.Add(5)
	g.Set(3)
	h.Observe(1.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	if err := r.WriteText(&strings.Builder{}); err != nil {
		t.Fatalf("nil WriteText: %v", err)
	}
	var o *Obs
	if o.Tracer() != nil || o.Registry() != nil {
		t.Fatal("nil Obs accessors must return nil")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("Counter must return the same instance per name")
	}
	if r.Gauge("a") != r.Gauge("a") {
		t.Fatal("Gauge must return the same instance per name")
	}
	if r.Histogram("a", 1, 2) != r.Histogram("a") {
		t.Fatal("Histogram must return the same instance per name")
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reads_total")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
	g := r.Gauge("alpha")
	g.Set(0.25)
	if g.Value() != 0.25 {
		t.Fatalf("gauge = %g, want 0.25", g.Value())
	}
	h := r.Histogram("lat_seconds", 0.1, 1, 10)
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("hist count = %d, want 4", h.Count())
	}
	if got := h.Sum(); got != 55.55 {
		t.Fatalf("hist sum = %g, want 55.55", got)
	}
	// Upper edges are inclusive; the open tail bucket comes last.
	h.Observe(1)
	if got := h.Buckets(); len(got) != 4 || got[0] != 1 || got[1] != 2 || got[2] != 1 || got[3] != 1 {
		t.Fatalf("buckets = %v, want [1 2 1 1]", got)
	}
	if (*Histogram)(nil).Buckets() != nil {
		t.Fatal("nil histogram has buckets")
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(float64(i))
				r.Histogram("h", 10, 100).Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Histogram("h").Count(); got != workers*per {
		t.Fatalf("hist count = %d, want %d", got, workers*per)
	}
}

func TestWriteTextExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("jaws_decisions_total").Add(7)
	r.Gauge("jaws_alpha").Set(0.5)
	h := r.Histogram("jaws_batch_atoms", 1, 15)
	h.Observe(1)
	h.Observe(10)
	h.Observe(40)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE jaws_decisions_total counter",
		"jaws_decisions_total 7",
		"# TYPE jaws_alpha gauge",
		"jaws_alpha 0.5",
		"# TYPE jaws_batch_atoms histogram",
		`jaws_batch_atoms_bucket{le="1"} 1`,
		`jaws_batch_atoms_bucket{le="15"} 2`,
		`jaws_batch_atoms_bucket{le="+Inf"} 3`,
		"jaws_batch_atoms_sum 51",
		"jaws_batch_atoms_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("descending bounds must panic")
		}
	}()
	NewRegistry().Histogram("bad", 5, 1)
}
