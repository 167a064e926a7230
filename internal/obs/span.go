package obs

import (
	"sort"
	"sync"
	"time"
)

// Span is the complete lifecycle record of one query: arrived → gated →
// eligible → batched → served → done, with the query's total response
// time attributed exhaustively to phases measured on the virtual clock.
//
// Attribution invariant: the phase components sum exactly to the total
// response time (Done − Arrival). The engine maintains this by charging
// every virtual-clock advance that occurs while the query is in flight to
// exactly one phase:
//
//   - Gated: arrival → dispatch into the workload queues. Covers both
//     job-aware gate holds (the precedence graph kept the query out of
//     the QUEUE state) and plain admission latency (the engine was busy
//     executing when the query arrived). Blocked distinguishes the two.
//   - Queued: dispatched and waiting — either no decision is executing,
//     or the executing decision serves other queries' atoms.
//   - Overhead: the fixed per-decision submission cost of decisions that
//     served this query (amortized across the batch, charged in full to
//     each member: batched service is shared, not divided).
//   - Disk: disk reads, failure-detection latency, and retry backoff
//     charged by decisions that served this query.
//   - Compute: kernel-evaluation time charged by decisions that served
//     this query.
//
// A decision "serves" a query when at least one of the query's
// sub-queries is in the decision's batches; all members of a decision see
// the same Overhead/Disk/Compute charges, reflecting that I/O sharing is
// exactly what the scheduler is trying to maximize.
type Span struct {
	Query int64 `json:"query"`
	Job   int64 `json:"job,omitempty"`
	Seq   int   `json:"seq,omitempty"`
	// Req is the originating HTTP request ID when the query entered
	// through the serving layer (empty for batch workloads). It is the
	// key cmd/jawsreport uses to stitch this virtual-clock span to the
	// request's wall-clock ReqSpan.
	Req string `json:"req,omitempty"`

	// Arrival and Done bound the lifecycle in virtual time.
	Arrival time.Duration `json:"arr"`
	Done    time.Duration `json:"done"`

	// Phase components; see the attribution invariant above.
	Gated    time.Duration `json:"gated,omitempty"`
	Queued   time.Duration `json:"queued,omitempty"`
	Overhead time.Duration `json:"sovh,omitempty"`
	Disk     time.Duration `json:"sdisk,omitempty"`
	Compute  time.Duration `json:"scomp,omitempty"`

	// Decisions counts the scheduling decisions that served this query;
	// Hits/Misses count the cache lookups those decisions performed
	// (shared across every query the decision served).
	Decisions int `json:"dec,omitempty"`
	Hits      int `json:"hits,omitempty"`
	Misses    int `json:"miss,omitempty"`

	// Blocked reports that job-aware gating held the query back at least
	// once (the Gated phase then measures a true gate hold).
	Blocked bool `json:"blocked,omitempty"`
}

// Total is the query's response time.
func (s *Span) Total() time.Duration { return s.Done - s.Arrival }

// PhaseSum is the sum of the phase components; the attribution invariant
// demands PhaseSum() == Total() for every completed span.
func (s *Span) PhaseSum() time.Duration {
	return s.Gated + s.Queued + s.Overhead + s.Disk + s.Compute
}

// PhaseTotals accumulates phase durations across spans.
type PhaseTotals struct {
	Gated    time.Duration `json:"gated"`
	Queued   time.Duration `json:"queued"`
	Overhead time.Duration `json:"overhead"`
	Disk     time.Duration `json:"disk"`
	Compute  time.Duration `json:"compute"`
}

// add folds one span's components in.
func (p *PhaseTotals) add(s *Span) {
	p.Gated += s.Gated
	p.Queued += s.Queued
	p.Overhead += s.Overhead
	p.Disk += s.Disk
	p.Compute += s.Compute
}

// PhaseShare is one row of an attribution table.
type PhaseShare struct {
	Name  string
	Total time.Duration
	// Share is Total's fraction of the summed response time (0 when the
	// summary is empty).
	Share float64
	// MeanPerQuery is Total / span count.
	MeanPerQuery time.Duration
}

// shares completes attribution rows that carry a name and a phase total:
// each row's fraction of total (the population's summed response time)
// and its mean over count spans, both 0 for an empty population.
func shares(total time.Duration, count int, rows ...PhaseShare) []PhaseShare {
	for i := range rows {
		if total > 0 {
			rows[i].Share = float64(rows[i].Total) / float64(total)
		}
		if count > 0 {
			rows[i].MeanPerQuery = rows[i].Total / time.Duration(count)
		}
	}
	return rows
}

// Quantile returns the q-th percentile (0 ≤ q < 100) of an ascending
// sample: the element of rank ⌊n·q/100⌋, 0 for an empty sample. It is the
// one order statistic of the repo — the engine's report, both span
// summaries, the per-cause wait tails and jawsload's client-side latencies
// all read it — so a percentile means the same rank on every surface.
func Quantile(asc []time.Duration, q int) time.Duration {
	n := len(asc)
	if n == 0 {
		return 0
	}
	return asc[n*q/100]
}

// Dist is the distribution half of a span summary: the population's size
// and its response-time statistics.
type Dist struct {
	Count                         int
	Mean, P50, P90, P95, P99, Max time.Duration
}

// summarizeBy is the one body behind every span summary: the distribution
// of the spans' totals, their sum, and the worstK slowest spans, slowest
// first. before breaks ties between equal totals, so the result does not
// depend on the order spans were recorded in. What differs per span type
// (the phase fold, the flag count) stays with the caller.
func summarizeBy[S any](spans []S, worstK int, total func(*S) time.Duration, before func(a, b *S) bool) (d Dist, sum time.Duration, worst []S) {
	n := len(spans)
	d.Count = n
	if n == 0 {
		return d, 0, nil
	}
	sorted := append([]S(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool {
		if ti, tj := total(&sorted[i]), total(&sorted[j]); ti != tj {
			return ti > tj
		}
		return before(&sorted[i], &sorted[j])
	})
	asc := make([]time.Duration, n)
	for i := range sorted {
		t := total(&sorted[i])
		asc[n-1-i] = t
		sum += t
	}
	d.Mean = sum / time.Duration(n)
	d.P50, d.P90, d.P95, d.P99 = Quantile(asc, 50), Quantile(asc, 90), Quantile(asc, 95), Quantile(asc, 99)
	d.Max = asc[n-1]
	if worstK > 0 {
		worst = append([]S(nil), sorted[:min(worstK, n)]...)
	}
	return d, sum, worst
}

// summarizer is what a span type brings to the shared aggregator: its own
// summary over a population.
type summarizer[S, R any] interface {
	summarize(spans []S, worstK int) R
}

// Agg collects finished spans of one type: SpanAgg for the engine's
// virtual-clock spans, ReqSpanAgg for the serving layer's wall-clock ones.
// All methods are nil-safe (a nil aggregator records nothing), and Add is
// safe for concurrent use, so per-node engines or handler goroutines can
// share one aggregator.
type Agg[S summarizer[S, R], R any] struct {
	mu    sync.Mutex
	spans []S
}

// Add records one finished span. Nil-safe no-op.
func (a *Agg[S, R]) Add(s S) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.spans = append(a.spans, s)
	a.mu.Unlock()
}

// Merge folds other's spans into a (per-node → cluster aggregation).
// Nil-safe in both directions.
func (a *Agg[S, R]) Merge(other *Agg[S, R]) {
	if a == nil {
		return
	}
	spans := other.Spans()
	a.mu.Lock()
	a.spans = append(a.spans, spans...)
	a.mu.Unlock()
}

// Count returns the number of recorded spans (0 for nil).
func (a *Agg[S, R]) Count() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.spans)
}

// Spans returns a copy of the recorded spans in recording order.
func (a *Agg[S, R]) Spans() []S {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]S(nil), a.spans...)
}

// Summarize computes the aggregate view, retaining the worstK slowest
// spans (0 keeps none). The result is deterministic regardless of the
// order spans were added in.
func (a *Agg[S, R]) Summarize(worstK int) R {
	var s S
	return s.summarize(a.Spans(), worstK)
}

// SpanSummary aggregates completed spans: response-time percentiles, the
// per-phase attribution totals, and the starvation tail (the worst-k
// spans by response time — the very queries the α-tuner exists to rescue).
type SpanSummary struct {
	Dist
	Blocked int
	// TotalResponse is Σ response time; the attribution shares are
	// fractions of it.
	TotalResponse time.Duration
	Phases        PhaseTotals
	// WorstK holds the k slowest spans, slowest first (ties broken by
	// query id so summaries are deterministic).
	WorstK []Span
}

// Attribution returns the per-phase rows in canonical lifecycle order.
func (s SpanSummary) Attribution() []PhaseShare {
	return shares(s.TotalResponse, s.Count,
		PhaseShare{Name: "gated", Total: s.Phases.Gated},
		PhaseShare{Name: "queued", Total: s.Phases.Queued},
		PhaseShare{Name: "overhead", Total: s.Phases.Overhead},
		PhaseShare{Name: "disk", Total: s.Phases.Disk},
		PhaseShare{Name: "compute", Total: s.Phases.Compute})
}

// SpanAgg collects completed query spans (see Agg).
type SpanAgg = Agg[Span, SpanSummary]

// NewSpanAgg creates an empty aggregator.
func NewSpanAgg() *SpanAgg { return &SpanAgg{} }

// SummarizeSpans aggregates an explicit span list (the aggregator-free
// path used by trace-reading tools).
func SummarizeSpans(spans []Span, worstK int) SpanSummary {
	var sum SpanSummary
	sum.Dist, sum.TotalResponse, sum.WorstK = summarizeBy(spans, worstK, (*Span).Total,
		func(a, b *Span) bool { return a.Query < b.Query })
	for i := range spans {
		sum.Phases.add(&spans[i])
		if spans[i].Blocked {
			sum.Blocked++
		}
	}
	return sum
}

func (Span) summarize(spans []Span, worstK int) SpanSummary { return SummarizeSpans(spans, worstK) }
