package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increases the counter by n. Nil-safe no-op.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increases the counter by one. Nil-safe no-op.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Nil-safe no-op.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bound histogram with atomic bucket counts. Bounds
// are inclusive upper edges; one extra open bucket catches the tail.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 sum, CAS-updated
}

// NewHistogram creates a histogram outside any registry, with the given
// strictly ascending bucket bounds.
func NewHistogram(bounds ...float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds must be strictly ascending, got %v", bounds))
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value. Nil-safe no-op.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Buckets returns the observation count of each bucket, the open tail
// bucket last (nil for a nil histogram).
func (h *Histogram) Buckets() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Count returns the number of observations (0 for a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 for a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Registry is a concurrency-safe set of named metrics. Metric names
// follow the Prometheus convention (snake_case with a unit suffix);
// lookups get-or-create, so instrumented code can resolve its metrics
// once at construction time and update lock-free afterwards.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	help       map[string]string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		help:       make(map[string]string),
	}
}

// Describe registers the help string WriteText emits as the metric's
// # HELP line. Call it alongside metric creation; later calls overwrite.
// Nil-safe no-op.
func (r *Registry) Describe(name, help string) {
	if r == nil || help == "" {
		return
	}
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

// writeHelp emits the # HELP line for name when one was registered.
// Callers hold mu. Backslashes and newlines are escaped per the
// Prometheus text exposition rules.
func (r *Registry) writeHelp(b *strings.Builder, name string) {
	h, ok := r.help[name]
	if !ok {
		return
	}
	h = strings.ReplaceAll(h, `\`, `\\`)
	h = strings.ReplaceAll(h, "\n", `\n`)
	fmt.Fprintf(b, "# HELP %s %s\n", name, h)
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil counter, whose updates are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later calls may pass no bounds). A nil
// registry returns a nil histogram.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds...)
		r.histograms[name] = h
	}
	return h
}

// WriteText renders the registry in the Prometheus text exposition
// format, metrics sorted by name. A nil registry writes nothing.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	var b strings.Builder
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.writeHelp(&b, name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", name, name, r.counters[name].Value())
	}

	names = names[:0]
	for name := range r.gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.writeHelp(&b, name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %g\n", name, name, r.gauges[name].Value())
	}

	names = names[:0]
	for name := range r.histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := r.histograms[name]
		r.writeHelp(&b, name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", name)
		var cum int64
		for i, bound := range h.bounds {
			cum += h.buckets[i].Load()
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", name, formatBound(bound), cum)
		}
		cum += h.buckets[len(h.bounds)].Load()
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(&b, "%s_sum %g\n", name, h.Sum())
		fmt.Fprintf(&b, "%s_count %d\n", name, h.Count())
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// formatBound renders a bucket edge without the %g exponent noise for
// common integral edges.
func formatBound(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
