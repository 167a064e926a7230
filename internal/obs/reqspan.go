package obs

import "time"

// ReqSpan is the wall-clock lifecycle record of one served HTTP request:
// the serving-layer counterpart of the engine's virtual-clock Span. Where
// a Span explains where a query's *virtual* response time went inside the
// engine (gated/queued/disk/compute), a ReqSpan explains where the *wall*
// time went around it: validation, the wait for a serving slot,
// dispatch, backend execution, and response writing.
//
// Attribution invariant, mirroring Span: the phase components sum exactly
// to Wall. The serving layer maintains this by construction — it keeps
// one monotonic cursor per request and charges every transition between
// lifecycle stages to exactly one phase, accumulating the same deltas
// into Wall, so no interval is ever counted twice or dropped (int64 ns,
// no float drift).
//
//   - Validate: handler entry → admission. Request decode, body and
//     parameter validation, ID assignment.
//   - Queued: admission → a serving slot is taken (or the deadline hit).
//   - Dispatch: slot taken → the backend accepted the submission.
//   - Execute: submission → the outcome is decided (result, deadline
//     expiry, or backend death).
//   - Write: outcome → the response is written.
//
// The ID is the propagated request ID (also returned to the client in
// the X-Jaws-Request-Id header and carried by the engine span as
// Span.Req), which is what lets cmd/jawsreport stitch the wall-clock and
// virtual-clock sides of one request into a single record.
type ReqSpan struct {
	// ID is the request ID (see RequestID).
	ID string `json:"id"`
	// Query is the engine query ID the request mapped to.
	Query int64 `json:"query,omitempty"`
	// Status is the HTTP status the request was answered with.
	Status int `json:"status,omitempty"`
	// Start is the wall-clock handler-entry stamp.
	Start time.Time `json:"start"`
	// QueueDepth is the number of requests waiting for a serving slot
	// when this one was admitted.
	QueueDepth int `json:"qdepth"`

	// Phase components; see the attribution invariant above.
	Validate time.Duration `json:"validate,omitempty"`
	Queued   time.Duration `json:"queued,omitempty"`
	Dispatch time.Duration `json:"dispatch,omitempty"`
	Execute  time.Duration `json:"execute,omitempty"`
	Write    time.Duration `json:"write,omitempty"`

	// Wall is the request's total wall-clock time, accumulated from the
	// same monotonic deltas as the phases (Wall == PhaseSum by
	// construction).
	Wall time.Duration `json:"wall"`

	// last is the monotonic cursor the next Mark charges from.
	last time.Time
}

// ReqPhase names one wall-clock phase of a request lifecycle.
type ReqPhase uint8

// The request phases in lifecycle order.
const (
	ReqValidate ReqPhase = iota
	ReqQueued
	ReqDispatch
	ReqExecute
	ReqWrite
)

// NewReqSpan opens a span at the current wall time. A span is not safe for
// concurrent use: one goroutine marks it, from accept to write.
func NewReqSpan() *ReqSpan {
	now := time.Now()
	return &ReqSpan{Start: now, last: now}
}

// SetRequest attaches the request ID and the engine query ID the request
// was assigned. Nil-safe no-op.
func (r *ReqSpan) SetRequest(id string, query int64) {
	if r == nil {
		return
	}
	r.ID = id
	r.Query = query
}

// Admit records the queue depth observed at admission and closes the
// Validate phase. Nil-safe no-op.
func (r *ReqSpan) Admit(depth int) {
	if r == nil {
		return
	}
	r.QueueDepth = depth
	r.Mark(ReqValidate)
}

// Mark charges the interval since the previous mark (or Start) to phase
// p and advances the cursor. Nil-safe no-op.
func (r *ReqSpan) Mark(p ReqPhase) {
	if r == nil {
		return
	}
	now := time.Now()
	d := now.Sub(r.last)
	if d < 0 {
		d = 0 // monotonic clocks should not go backwards; belt and braces
	}
	r.last = now
	r.Wall += d
	switch p {
	case ReqValidate:
		r.Validate += d
	case ReqQueued:
		r.Queued += d
	case ReqDispatch:
		r.Dispatch += d
	case ReqExecute:
		r.Execute += d
	default:
		r.Write += d
	}
}

// Finish charges the remaining interval to Write and records the HTTP
// status the request was answered with. Nil-safe no-op.
func (r *ReqSpan) Finish(status int) {
	if r == nil {
		return
	}
	r.Mark(ReqWrite)
	r.Status = status
}

// Total is the request's wall-clock time.
func (r *ReqSpan) Total() time.Duration { return r.Wall }

// PhaseSum is the sum of the phase components; the attribution invariant
// demands PhaseSum() == Wall for every finished span.
func (r *ReqSpan) PhaseSum() time.Duration {
	return r.Validate + r.Queued + r.Dispatch + r.Execute + r.Write
}

// RequestID derives the deterministic request ID for the n-th request
// under seed (a splitmix64 mix rendered as "r" + 16 hex digits). The
// serving layer numbers requests with its query-ID counter, so for a
// fixed seed the same acceptance order yields the same IDs — which is
// what makes traces, tests, and client-side logs cross-checkable. The
// digits are written by hand, so the string is the only allocation.
func RequestID(seed, n int64) string {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(n)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	const hex = "0123456789abcdef"
	var b [17]byte
	b[0] = 'r'
	for i := len(b) - 1; i > 0; i-- {
		b[i] = hex[x&0xf]
		x >>= 4
	}
	return string(b[:])
}

// ReqPhaseTotals accumulates wall-clock phase durations across spans.
type ReqPhaseTotals struct {
	Validate time.Duration `json:"validate"`
	Queued   time.Duration `json:"queued"`
	Dispatch time.Duration `json:"dispatch"`
	Execute  time.Duration `json:"execute"`
	Write    time.Duration `json:"write"`
}

func (p *ReqPhaseTotals) add(r *ReqSpan) {
	p.Validate += r.Validate
	p.Queued += r.Queued
	p.Dispatch += r.Dispatch
	p.Execute += r.Execute
	p.Write += r.Write
}

// ReqSpanSummary aggregates finished request spans: wall-clock
// percentiles, per-phase attribution, and the worst-k tail.
type ReqSpanSummary struct {
	Dist
	// OK counts requests answered 200.
	OK int
	// TotalWall is Σ wall time; attribution shares are fractions of it.
	TotalWall time.Duration
	Phases    ReqPhaseTotals
	// WorstK holds the k slowest spans, slowest first (ties broken by
	// request ID so summaries are deterministic).
	WorstK []ReqSpan
}

// Attribution returns the per-phase rows in lifecycle order.
func (s ReqSpanSummary) Attribution() []PhaseShare {
	return shares(s.TotalWall, s.Count,
		PhaseShare{Name: "validate", Total: s.Phases.Validate},
		PhaseShare{Name: "queued", Total: s.Phases.Queued},
		PhaseShare{Name: "dispatch", Total: s.Phases.Dispatch},
		PhaseShare{Name: "execute", Total: s.Phases.Execute},
		PhaseShare{Name: "write", Total: s.Phases.Write})
}

// ReqSpanAgg collects finished request spans (see Agg); every handler
// goroutine shares one.
type ReqSpanAgg = Agg[ReqSpan, ReqSpanSummary]

// NewReqSpanAgg creates an empty aggregator.
func NewReqSpanAgg() *ReqSpanAgg { return &ReqSpanAgg{} }

// SummarizeReqSpans aggregates an explicit span list (the aggregator-free
// path used by trace-reading tools). The result is deterministic
// regardless of input order.
func SummarizeReqSpans(spans []ReqSpan, worstK int) ReqSpanSummary {
	var sum ReqSpanSummary
	sum.Dist, sum.TotalWall, sum.WorstK = summarizeBy(spans, worstK, (*ReqSpan).Total,
		func(a, b *ReqSpan) bool { return a.ID < b.ID })
	for i := range spans {
		sum.Phases.add(&spans[i])
		if spans[i].Status == 200 {
			sum.OK++
		}
	}
	return sum
}

func (ReqSpan) summarize(spans []ReqSpan, worstK int) ReqSpanSummary {
	return SummarizeReqSpans(spans, worstK)
}
