package obs

import (
	"reflect"
	"sort"
	"time"

	"jaws/internal/oracle/difftest"
)

// refIndex and its chain are DecisionIndex and Chain as they were before
// the index posted gating edges under their query: for each round in
// which a query was blocked, chain rescans that round's whole Blocked
// list. It is the reference the differential tests hold the linear-time
// index to.
type refIndex struct {
	byEngine  map[int][]DecisionRecord
	servedAt  map[int64][]roundRef
	blockedAt map[int64][]roundRef
}

func newRefIndex(recs []DecisionRecord) *refIndex {
	ix := &refIndex{
		byEngine:  make(map[int][]DecisionRecord),
		servedAt:  make(map[int64][]roundRef),
		blockedAt: make(map[int64][]roundRef),
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
				refs := ix.blockedAt[qid]
				if len(refs) == 0 || refs[len(refs)-1] != ref {
					ix.blockedAt[qid] = append(refs, ref)
				}
			}
		}
	}
	for _, refs := range ix.servedAt {
		sort.Slice(refs, func(i, j int) bool { return refs[i].idx < refs[j].idx })
	}
	return ix
}

func (ix *refIndex) chain(sp Span) *WaitChain {
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
		if ref.engine != c.Engine {
			continue
		}
		rec := &timeline[ref.idx]
		if rec.T >= dispatch {
			continue
		}
		for _, e := range rec.Blocked {
			if e.Query != sp.Query || seenEdge[e] {
				continue
			}
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

// DiffChains reconstructs every span's chain through the index and
// through the reference and fails on the first chain that differs in any
// field: gated edges in order, rounds, per-cause waits, exactness.
func DiffChains(t difftest.TB, recs []DecisionRecord, spans []Span) {
	t.Helper()
	ix, ref := NewDecisionIndex(recs), newRefIndex(recs)
	for _, sp := range spans {
		got, want := ix.Chain(sp), ref.chain(sp)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: chain differs from the reference\n got %+v\nwant %+v", sp.Query, got, want)
		}
	}
}
