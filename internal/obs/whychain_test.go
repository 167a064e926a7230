package obs

import (
	"reflect"
	"testing"
	"time"

	"jaws/internal/oracle/difftest"
)

const ms = time.Millisecond

// chainFixture builds a synthetic decision timeline exercising every
// classification path for query 7 on engine 0:
//
//	T= 5ms  pre-dispatch: a gating edge holds the query
//	T=10ms  pass-over: lost the utility race (winner led on raw U_t too)
//	T=20ms  pass-over: above-mean candidate truncated by the batch bound
//	T=25ms  pass-over: the winner aged in (query's step led on raw U_t)
//	T=40ms  serving: the query's atom (step 5) is batched; Done at 70ms
//
// The matching span has Gated 10ms (dispatch at 10ms) and Queued 30ms,
// equal to the pass-over gaps 10+5+15 — so the chain must come out Exact.
func chainFixture() ([]DecisionRecord, Span) {
	recs := []DecisionRecord{
		{
			Seq: 0, T: 5 * ms, Sched: "jaws2", WinnerStep: 1,
			Blocked: []DecisionEdge{{Query: 7, Job: 1, Seq: 2, OnJob: 1, OnSeq: 1, OnQuery: 6}},
		},
		{
			Seq: 1, T: 10 * ms, Sched: "jaws2", WinnerStep: 3,
			Steps: []DecisionStep{
				{Step: 3, MeanUt: 2.0, MeanUe: 2.5},
				{Step: 5, MeanUt: 1.0, MeanUe: 1.5},
			},
		},
		{
			Seq: 2, T: 20 * ms, Sched: "jaws2", WinnerStep: 5,
			Truncated: []DecisionAtom{{Step: 5, Queries: []int64{7}}},
		},
		{
			Seq: 3, T: 25 * ms, Sched: "jaws2", WinnerStep: 2,
			Steps: []DecisionStep{
				{Step: 2, MeanUt: 0.5, MeanUe: 3.0},
				{Step: 5, MeanUt: 1.0, MeanUe: 2.0},
			},
		},
		{
			Seq: 4, T: 40 * ms, Sched: "jaws2", WinnerStep: 5,
			Chosen: []DecisionAtom{{Step: 5, Queries: []int64{7, 9}}},
		},
	}
	sp := Span{
		Query: 7, Job: 1, Seq: 2,
		Arrival: 0, Done: 70 * ms,
		Gated: 10 * ms, Queued: 30 * ms, Compute: 30 * ms,
		Blocked: true,
	}
	return recs, sp
}

func TestChainReconstruction(t *testing.T) {
	recs, sp := chainFixture()
	ix := NewDecisionIndex(recs)
	c := ix.Chain(sp)

	if c.Note != "" {
		t.Fatalf("unexpected note: %q", c.Note)
	}
	if c.Query != 7 || c.Engine != 0 {
		t.Fatalf("chain identity = query %d engine %d, want 7/0", c.Query, c.Engine)
	}

	// The pre-dispatch hold names its gating edge.
	if len(c.GatedEdges) != 1 || c.GatedEdges[0].OnQuery != 6 {
		t.Fatalf("GatedEdges = %+v, want the single edge on query 6", c.GatedEdges)
	}

	// The window [10ms, 70ms) holds rounds seq 1..4.
	wantRounds := []struct {
		seq     int64
		dur     time.Duration
		serving bool
		cause   WaitCause
	}{
		{1, 10 * ms, false, CauseLostRace},
		{2, 5 * ms, false, CauseBatchFull},
		{3, 15 * ms, false, CauseAgedIn},
		{4, 30 * ms, true, ""},
	}
	if len(c.Rounds) != len(wantRounds) {
		t.Fatalf("chain has %d rounds, want %d: %+v", len(c.Rounds), len(wantRounds), c.Rounds)
	}
	for i, want := range wantRounds {
		got := c.Rounds[i]
		if got.Seq != want.seq || got.Dur != want.dur || got.Serving != want.serving || got.Cause != want.cause {
			t.Errorf("round %d = seq %d dur %v serving %v cause %q, want seq %d dur %v serving %v cause %q",
				i, got.Seq, got.Dur, got.Serving, got.Cause, want.seq, want.dur, want.serving, want.cause)
		}
	}

	// The aged-in round must report a positive margin (winner's mean U_e
	// lead over the query's best step).
	if m := c.Rounds[2].Margin; m != 1.0 {
		t.Errorf("aged-in margin = %v, want 1.0", m)
	}

	// Conservation: pass-over durations partition the span's Queued phase
	// and ByCause sums to Gated + Queued.
	if !c.Exact {
		t.Fatalf("chain not exact: Queued %v vs span %v", c.Queued, sp.Queued)
	}
	wantByCause := map[WaitCause]time.Duration{
		CauseGated:     10 * ms,
		CauseLostRace:  10 * ms,
		CauseBatchFull: 5 * ms,
		CauseAgedIn:    15 * ms,
	}
	for cause, want := range wantByCause {
		if got := c.ByCause[cause]; got != want {
			t.Errorf("ByCause[%s] = %v, want %v", cause, got, want)
		}
	}
	var sum time.Duration
	for _, d := range c.ByCause {
		sum += d
	}
	if sum != sp.Gated+sp.Queued {
		t.Errorf("Σ ByCause = %v, want Gated+Queued = %v", sum, sp.Gated+sp.Queued)
	}

	if n := c.PassedOver(); n != 3 {
		t.Errorf("PassedOver() = %d, want 3", n)
	}
	if cause, d := c.DominantCause(); cause != CauseAgedIn || d != 15*ms {
		t.Errorf("DominantCause() = %s/%v, want aged-in/15ms", cause, d)
	}
}

// TestChainNoRecords pins the incomplete-chain path: the recorder never
// saw the query, so the chain carries a note and only the gated lump.
func TestChainNoRecords(t *testing.T) {
	ix := NewDecisionIndex(nil)
	sp := Span{Query: 3, Arrival: 0, Done: 10 * ms, Gated: 4 * ms, Queued: 6 * ms}
	c := ix.Chain(sp)
	if c.Note == "" {
		t.Fatal("expected a note on a record-free chain")
	}
	if c.Exact {
		t.Fatal("record-free chain must not claim exactness")
	}
	if got := c.ByCause[CauseGated]; got != 4*ms {
		t.Fatalf("gated lump = %v, want 4ms", got)
	}
	if len(c.Rounds) != 0 {
		t.Fatalf("record-free chain has %d rounds, want 0", len(c.Rounds))
	}
}

// TestClassifyEdgeCases covers the classification branches the fixture
// timeline does not reach: urgent QoS rounds and step-free schedulers.
func TestClassifyEdgeCases(t *testing.T) {
	classify := func(rec *DecisionRecord, pending []int) WaitRound {
		r := WaitRound{WinnerStep: rec.WinnerStep}
		r.Cause, r.Margin, r.detail, r.best = classifyRound(rec, 7, pending)
		return r
	}
	if r := classify(&DecisionRecord{Urgent: true, WinnerStep: 2}, nil); r.Cause != CauseLostRace {
		t.Errorf("urgent round classified %s, want lost-race", r.Cause)
	}
	if r := classify(&DecisionRecord{WinnerStep: -1}, nil); r.Cause != CauseLostRace || r.Detail() == "" {
		t.Errorf("step-free round classified %s (%q), want lost-race with a detail", r.Cause, r.Detail())
	}
	// In the winning step but below its mean: lost-race with zero margin.
	sameStep := &DecisionRecord{
		WinnerStep: 5,
		Steps:      []DecisionStep{{Step: 5, MeanUt: 1.0, MeanUe: 2.0}},
	}
	if r := classify(sameStep, []int{5}); r.Cause != CauseLostRace || r.Margin != 0 {
		t.Errorf("same-step round = %s margin %v, want lost-race margin 0", r.Cause, r.Margin)
	}
}

// TestCauseBreakdown checks the aggregate table: canonical cause order,
// totals matching the chain decomposition, and determinism across calls.
func TestCauseBreakdown(t *testing.T) {
	recs, sp := chainFixture()
	ix := NewDecisionIndex(recs)

	if got := CauseBreakdown(nil, ix); got != nil {
		t.Fatalf("empty-span breakdown = %+v, want nil", got)
	}

	tails := CauseBreakdown([]Span{sp}, ix)
	if len(tails) != len(AllWaitCauses) {
		t.Fatalf("breakdown has %d rows, want %d", len(tails), len(AllWaitCauses))
	}
	wantTotals := map[string]float64{
		"gated-behind": 10, "lost-race": 10, "batch-full": 5, "aged-in": 15,
	}
	for i, tail := range tails {
		if tail.Cause != string(AllWaitCauses[i]) {
			t.Errorf("row %d cause = %s, want %s (canonical order)", i, tail.Cause, AllWaitCauses[i])
		}
		if tail.TotalMS != wantTotals[tail.Cause] {
			t.Errorf("%s total = %vms, want %vms", tail.Cause, tail.TotalMS, wantTotals[tail.Cause])
		}
		// One span: every percentile equals the total.
		if tail.P50MS != tail.TotalMS || tail.P99MS != tail.TotalMS {
			t.Errorf("%s percentiles %v/%v differ from total %v on a 1-span population",
				tail.Cause, tail.P50MS, tail.P99MS, tail.TotalMS)
		}
	}

	if again := CauseBreakdown([]Span{sp}, ix); !reflect.DeepEqual(tails, again) {
		t.Error("CauseBreakdown is not deterministic across calls")
	}
}

// replay decodes l into a decision log and the spans of its queries, and
// holds Chain to the reference on them (DiffChains): several engines
// interleaved (each with its own queries, as the join assumes), rounds at
// equal and increasing times, a query blocked by several edges in one
// round and by the same edge in many, and spans whose windows start
// before, inside and after the recorded rounds. A byte picks the number of
// engines, four bytes each query's span; rounds follow to the end of the
// log.
func replay(t difftest.TB, l *difftest.Log) {
	const perEngine = 5
	engines := 1 + l.Intn(3)
	var spans []Span
	for q := int64(1); q <= int64(engines*perEngine); q++ {
		arrival := time.Duration(l.Intn(40)) * ms
		gated := time.Duration(l.Intn(30)) * ms
		queued := time.Duration(l.Intn(30)) * ms
		spans = append(spans, Span{
			Query: q, Arrival: arrival, Gated: gated, Queued: queued,
			Done: arrival + gated + queued + time.Duration(l.Intn(20))*ms,
		})
	}
	queryIDs := func(engine, n int) []int64 {
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(1 + engine*perEngine + l.Intn(perEngine))
		}
		return ids
	}
	var recs []DecisionRecord
	now := make([]time.Duration, engines)
	for seq := int64(0); l.More(); seq++ {
		engine := l.Intn(engines)
		now[engine] += time.Duration(l.Intn(3)) * ms
		rec := DecisionRecord{
			Engine: engine, Seq: seq, T: now[engine], Sched: "jaws2",
			WinnerStep: l.Intn(4), Urgent: l.Intn(10) == 0,
			PendingAtoms: l.Intn(10),
		}
		for step := 0; step < 4; step++ {
			if l.Intn(3) > 0 {
				rec.Steps = append(rec.Steps, DecisionStep{
					Step: step, Atoms: 1 + l.Intn(5),
					MeanUt: float64(l.Intn(4)), MeanUe: float64(l.Intn(4)),
				})
			}
		}
		for a := l.Intn(3); a > 0; a-- {
			rec.Chosen = append(rec.Chosen, DecisionAtom{Step: l.Intn(4), Queries: queryIDs(engine, 1+l.Intn(3))})
		}
		for a := l.Intn(2); a > 0; a-- {
			rec.Truncated = append(rec.Truncated, DecisionAtom{Step: l.Intn(4), Queries: queryIDs(engine, 1+l.Intn(2))})
		}
		for b := l.Intn(6); b > 0; b-- {
			q := queryIDs(engine, 1)[0]
			rec.Blocked = append(rec.Blocked, DecisionEdge{
				Query: q, Job: q % 3, Seq: int(q % 4),
				OnJob: int64(l.Intn(3)), OnSeq: l.Intn(2), OnQuery: int64(l.Intn(perEngine)),
			})
		}
		recs = append(recs, rec)
	}
	DiffChains(t, recs, spans)
}

// TestChainMatchesReferenceRandom holds Chain to the reference over random
// logs of 20 to 80 rounds.
func TestChainMatchesReferenceRandom(t *testing.T) {
	difftest.Seeds(t, difftest.Gen{First: 1, N: 200, Min: 700, Span: 2100}, replay)
}
