package obs

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
)

// Wait-cause attribution: joining a query's lifecycle Span with the
// decision flight records of the engine that served it reconstructs the
// query's full wait chain — every decision round it was eligible but
// passed over, attributed to exactly one cause.
//
// The join is exact by construction. A span opens at dispatch with
// Gated = dispatch − arrival as one lump; from dispatch until Done the
// engine decides continuously (a pending query keeps Pending() > 0, so
// the run loop never idles past an event), and every round the query
// was not served charges exactly (nextRound.T − round.T) to its Queued
// phase. So the non-serving rounds of the window [dispatch, Done)
// partition the span's Queued time, and the gated lump is the pre-
// dispatch hold — the chain's cause durations sum to Gated + Queued
// whenever the recorder saw every round (Exact reports this).

// WaitCause names one reason a query spent a decision round (or its
// pre-dispatch hold) waiting.
type WaitCause string

const (
	// CauseGated is the pre-dispatch hold: job-aware gating (or plain
	// admission latency) kept the query out of the workload queues.
	CauseGated WaitCause = "gated-behind"
	// CauseLostRace is a round lost in the utility race: another step or
	// atom scored a higher aged workload throughput.
	CauseLostRace WaitCause = "lost-race"
	// CauseBatchFull is a round where the query's atom was above the
	// step mean but dropped by the batch bound k.
	CauseBatchFull WaitCause = "batch-full"
	// CauseAgedIn is a round where the query's step led on raw U_t but
	// the age bias α aged another step in ahead of it.
	CauseAgedIn WaitCause = "aged-in"
)

// AllWaitCauses lists the causes in canonical report order.
var AllWaitCauses = []WaitCause{CauseGated, CauseLostRace, CauseBatchFull, CauseAgedIn}

// WaitRound is one decision round of a query's eligibility window.
type WaitRound struct {
	// Seq and T identify the decision record the round came from.
	Seq int64
	T   time.Duration
	// Dur is the virtual time the round accounts for: the gap to the
	// next decision (clipped to the span's completion).
	Dur time.Duration
	// Serving marks rounds whose batch carried one of the query's
	// sub-queries; the others are pass-overs with a Cause.
	Serving bool
	Cause   WaitCause
	// WinnerStep won the round; best is the query's best candidate step and
	// Margin the winner's mean-U_e lead over it (0 when the record carries
	// no utilities); detail is Detail's format over the three.
	WinnerStep, best int
	Margin           float64
	detail           string
}

// Detail is the pass-over in words, "" for a serving round; Chain leaves it unformatted.
func (r *WaitRound) Detail() string {
	if strings.Contains(r.detail, "%") {
		return fmt.Sprintf(r.detail, r.WinnerStep, r.best, r.Margin)
	}
	return r.detail
}

// WaitChain is the reconstructed wait history of one query.
type WaitChain struct {
	Query  int64
	Engine int
	Span   Span
	// GatedEdges are the distinct gating edges observed holding the
	// query before dispatch, in first-observed order.
	GatedEdges []DecisionEdge
	// Rounds covers every decision round in [dispatch, Done), serving
	// rounds included.
	Rounds []WaitRound
	// Queued is the Σ Dur of the pass-over rounds; Exact reports whether
	// it equals the span's Queued phase (it does unless the recorder
	// dropped rounds).
	Queued time.Duration
	Exact  bool
	// ByCause is the wait decomposition: the gated lump plus the
	// pass-over rounds, keyed by cause.
	ByCause map[WaitCause]time.Duration
	// Note is non-empty when the chain is incomplete (no decision
	// records mention the query).
	Note string
}

// PassedOver counts the non-serving rounds.
func (c *WaitChain) PassedOver() int {
	n := 0
	for i := range c.Rounds {
		if !c.Rounds[i].Serving {
			n++
		}
	}
	return n
}

// DominantCause returns the cause with the largest share of the query's
// wait (ties broken in AllWaitCauses order) and that share's duration.
func (c *WaitChain) DominantCause() (WaitCause, time.Duration) {
	best, bestD := WaitCause(""), time.Duration(-1)
	for _, cause := range AllWaitCauses {
		if d := c.ByCause[cause]; d > bestD {
			best, bestD = cause, d
		}
	}
	if bestD <= 0 {
		return "", 0
	}
	return best, bestD
}

// roundRef locates one decision record inside a per-engine timeline.
type roundRef struct {
	engine int
	idx    int
}

// edgeRef locates one gating edge: a round, and the edge's index in that
// round's Blocked list.
type edgeRef struct {
	roundRef
	edge int
}

// DecisionIndex pre-indexes decision records for chain reconstruction:
// per-engine timelines (records in emission order, virtual time
// non-decreasing) plus query → serving-round and query → blocking-edge
// inverted indexes.
type DecisionIndex struct {
	byEngine  map[int][]DecisionRecord
	servedAt  map[int64][]roundRef
	blockedAt map[int64][]edgeRef
}

// NewDecisionIndex builds the index. Records may interleave engines (as
// they do in a shared trace file) but must be in emission order per
// engine.
func NewDecisionIndex(recs []DecisionRecord) *DecisionIndex {
	ix := &DecisionIndex{
		byEngine:  make(map[int][]DecisionRecord),
		servedAt:  make(map[int64][]roundRef),
		blockedAt: make(map[int64][]edgeRef),
	}
	for _, rec := range recs {
		ix.byEngine[rec.Engine] = append(ix.byEngine[rec.Engine], rec)
	}
	for engine, timeline := range ix.byEngine {
		for i := range timeline {
			rec := &timeline[i]
			ref := roundRef{engine: engine, idx: i}
			for a := range rec.Chosen {
				for _, qid := range rec.Chosen[a].Queries {
					ix.servedAt[qid] = append(ix.servedAt[qid], ref)
				}
			}
			for b := range rec.Blocked {
				qid := rec.Blocked[b].Query
				ix.blockedAt[qid] = append(ix.blockedAt[qid], edgeRef{ref, b})
			}
		}
	}
	for _, refs := range ix.servedAt {
		sort.Slice(refs, func(i, j int) bool { return refs[i].idx < refs[j].idx })
	}
	return ix
}

// Chain reconstructs the wait chain of one completed span. When no
// decision record mentions the query (recorder off, or its records lost)
// the chain carries a Note and Exact is false.
func (ix *DecisionIndex) Chain(sp Span) *WaitChain {
	c := &WaitChain{
		Query:   sp.Query,
		Span:    sp,
		ByCause: make(map[WaitCause]time.Duration, len(AllWaitCauses)),
	}
	c.ByCause[CauseGated] = sp.Gated

	served := ix.servedAt[sp.Query]
	blocked := ix.blockedAt[sp.Query]
	if len(served) == 0 {
		c.Note = "no decision record mentions this query (flight recorder off, or its window dropped)"
		return c
	}
	c.Engine = served[0].engine
	timeline := ix.byEngine[c.Engine]
	dispatch := sp.Arrival + sp.Gated

	// The gated lump: the distinct edges observed holding the query
	// before dispatch.
	seenEdge := make(map[DecisionEdge]bool)
	for _, ref := range blocked {
		if ref.engine != c.Engine || timeline[ref.idx].T >= dispatch {
			continue
		}
		if e := timeline[ref.idx].Blocked[ref.edge]; !seenEdge[e] {
			seenEdge[e] = true
			c.GatedEdges = append(c.GatedEdges, e)
		}
	}

	// The eligibility window: rounds with T in [dispatch, Done).
	first := sort.Search(len(timeline), func(i int) bool { return timeline[i].T >= dispatch })
	servingIdx := make(map[int]bool, len(served))
	for _, ref := range served {
		servingIdx[ref.idx] = true
	}

	// pendingSteps[i] for the walk below: the steps of the query's
	// still-queued atoms at round i are the steps of its atoms chosen at
	// rounds ≥ i. Walk the window backwards accumulating them.
	last := first - 1
	for i := first; i < len(timeline); i++ {
		if timeline[i].T >= sp.Done {
			break
		}
		last = i
	}
	pending := make([][]int, last-first+1)
	var acc []int
	addStep := func(step int) {
		for _, s := range acc {
			if s == step {
				return
			}
		}
		acc = append(acc, step)
	}
	for i := last; i >= first; i-- {
		if servingIdx[i] {
			rec := &timeline[i]
			for a := range rec.Chosen {
				for _, qid := range rec.Chosen[a].Queries {
					if qid == sp.Query {
						addStep(rec.Chosen[a].Step)
						break
					}
				}
			}
		}
		pending[i-first] = append([]int(nil), acc...)
	}

	for i := first; i <= last; i++ {
		rec := &timeline[i]
		var dur time.Duration
		if i < last {
			dur = timeline[i+1].T - rec.T
		} else {
			dur = sp.Done - rec.T
		}
		round := WaitRound{Seq: rec.Seq, T: rec.T, Dur: dur, WinnerStep: rec.WinnerStep}
		if servingIdx[i] {
			round.Serving = true
		} else {
			round.Cause, round.Margin, round.detail, round.best = classifyRound(rec, sp.Query, pending[i-first])
			c.Queued += dur
			c.ByCause[round.Cause] += dur
		}
		c.Rounds = append(c.Rounds, round)
	}
	c.Exact = c.Queued == sp.Queued
	return c
}

// classifyRound attributes a pass-over round: cause, margin, Detail's format, best step.
func classifyRound(rec *DecisionRecord, qid int64, pendingSteps []int) (WaitCause, float64, string, int) {
	// Batch-full wins outright: the atom was above the mean and ranked,
	// only the bound k dropped it.
	if slices.ContainsFunc(rec.Truncated, func(a DecisionAtom) bool { return slices.Contains(a.Queries, qid) }) {
		return CauseBatchFull, 0, "above-mean candidate dropped by the batch bound (k reached, step %[1]d)", 0
	}
	if rec.Urgent {
		return CauseLostRace, 0, "a QoS urgent round bypassed the utility race", 0
	}
	if len(rec.Steps) == 0 {
		return CauseLostRace, 0, "arrival order: earlier queries ahead", 0
	}
	win := rec.stepMean(rec.WinnerStep)
	// The query's best candidate step this round: the highest-mean-U_e
	// step among the steps its still-queued atoms sit on.
	var best *DecisionStep
	for _, step := range pendingSteps {
		if s := rec.stepMean(step); s != nil && (best == nil || s.MeanUe > best.MeanUe || (s.MeanUe == best.MeanUe && s.Step < best.Step)) {
			best = s
		}
	}
	if win == nil || best == nil {
		return CauseLostRace, 0, "lost the utility race (steps unresolved in this record)", 0
	}
	if best.Step == win.Step {
		return CauseLostRace, 0, "in the winning step %[1]d but below its mean U_e", 0
	}
	margin := win.MeanUe - best.MeanUe
	if win.MeanUt < best.MeanUt {
		return CauseAgedIn, margin, "step %[1]d aged in over step %[2]d (ΔU_e %.4[3]g, raw U_t favored %[2]d)", best.Step
	}
	return CauseLostRace, margin, "lost to step %[1]d (ΔU_e %.4[3]g)", best.Step
}

// CauseTail is the per-cause wait distribution across a span
// population: the total and the per-span percentiles of time attributed
// to one cause. Durations are milliseconds of virtual time.
type CauseTail struct {
	Cause   string  `json:"cause"`
	TotalMS float64 `json:"total_ms"`
	MeanMS  float64 `json:"mean_ms"`
	P50MS   float64 `json:"p50_ms"`
	P95MS   float64 `json:"p95_ms"`
	P99MS   float64 `json:"p99_ms"`
}

// CauseBreakdown attributes every span's wait and aggregates by cause,
// in AllWaitCauses order. Spans whose chain is incomplete still
// contribute their gated lump (always exact) and whatever rounds were
// recorded. The result is deterministic for a fixed input.
func CauseBreakdown(spans []Span, ix *DecisionIndex) []CauseTail {
	if len(spans) == 0 {
		return nil
	}
	perCause := make(map[WaitCause][]time.Duration, len(AllWaitCauses))
	totals := make(map[WaitCause]time.Duration, len(AllWaitCauses))
	for _, sp := range spans {
		c := ix.Chain(sp)
		for _, cause := range AllWaitCauses {
			d := c.ByCause[cause]
			perCause[cause] = append(perCause[cause], d)
			totals[cause] += d
		}
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	out := make([]CauseTail, 0, len(AllWaitCauses))
	n := len(spans)
	for _, cause := range AllWaitCauses {
		ds := perCause[cause]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		out = append(out, CauseTail{
			Cause:   string(cause),
			TotalMS: ms(totals[cause]),
			MeanMS:  ms(totals[cause] / time.Duration(n)),
			P50MS:   ms(Quantile(ds, 50)),
			P95MS:   ms(Quantile(ds, 95)),
			P99MS:   ms(Quantile(ds, 99)),
		})
	}
	return out
}
