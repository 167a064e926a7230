package oracle

import (
	"strings"
	"testing"
	"time"

	"jaws/internal/cache"
	"jaws/internal/obs"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/store"
)

// The checkers are only worth trusting if they actually flag broken runs;
// these tests hand them fabricated violations.

func subOf(qid query.ID, atom store.AtomID) *query.SubQuery {
	return &query.SubQuery{Query: &query.Query{ID: qid}, Atom: atom}
}

func TestCheckExactlyOnceFlagsViolations(t *testing.T) {
	a := store.AtomID{Step: 1, Code: 9}
	enqueued := subOf(1, a)
	ghost := subOf(2, a)
	c := &Capture{
		Log: &OpLog{Ops: []Op{
			{Kind: OpEnqueue, Now: 10, Sub: enqueued},
		}},
		Decisions: []Decision{
			// Served before its enqueue time, served twice, plus a sub-query
			// the scheduler was never given.
			{Now: 5, Batches: []sched.Batch{{Atom: a, SubQueries: []*query.SubQuery{enqueued, ghost}}}},
			{Now: 20, Batches: []sched.Batch{{Atom: a, SubQueries: []*query.SubQuery{enqueued}}}},
		},
	}
	out := CheckExactlyOnce(c, true)
	for _, want := range []string{"never-enqueued", "enqueued later", "served 2 times"} {
		if !containsAny(out, want) {
			t.Errorf("missing %q violation in %q", want, out)
		}
	}

	// A clean single-serve log must pass, and an unserved sub-query must
	// only be flagged on complete runs.
	c = &Capture{
		Log:       &OpLog{Ops: []Op{{Kind: OpEnqueue, Now: 10, Sub: enqueued}}},
		Decisions: nil,
	}
	if out := CheckExactlyOnce(c, false); len(out) != 0 {
		t.Errorf("crashed-run capture flagged: %q", out)
	}
	if out := CheckExactlyOnce(c, true); !containsAny(out, "never served") {
		t.Errorf("complete run with unserved sub-query not flagged: %q", out)
	}
}

// TestRecorderSnapshotsSubQueries: the engine reuses a sub-query record
// once its query completed, so the recorder must log copies. One record
// carries two sub-queries in turn here; the log must show each as it was
// enqueued, the decisions must name the copies, and the exactly-once
// checker, which keys on them, must pass.
func TestRecorderSnapshotsSubQueries(t *testing.T) {
	rec := NewRecordingSched(sched.NewNoShare(), nil)
	live := genSub(1, 0, 1, 1, 1, 4, 0)
	first := *live
	rec.Enqueue(live, 10)
	served := rec.NextBatch(20)
	if len(served) != 1 || served[0].SubQueries[0] != live {
		t.Fatalf("the engine was handed %v, want the record it enqueued", served)
	}
	// The query completed: the record now holds a later query's sub-query.
	*live = *genSub(2, 1, 2, 2, 2, 7, 30)
	second := *live
	rec.Enqueue(live, 30)
	c := &Capture{Log: rec.Log(), Decisions: []Decision{
		{Now: 20, Batches: rec.Log().Ops[1].Got},
		{Now: 40, Batches: rec.Snapshot(rec.NextBatch(40))},
	}}
	ops := rec.Log().Ops
	enq := []Op{ops[0], ops[2]}
	if len(ops) != 4 || enq[0].Kind != OpEnqueue || enq[1].Kind != OpEnqueue || enq[0].Sub == live || enq[1].Sub == live {
		t.Fatalf("the log holds the engine's record itself: %v", ops)
	}
	for i, want := range []query.SubQuery{first, second} {
		got := enq[i].Sub
		if got.Query != want.Query || got.Atom != want.Atom || len(got.Index) != len(want.Index) || &got.Index[0] == &want.Index[0] {
			t.Errorf("enqueue %d logged %+v, want a deep copy of %+v", i, *got, want)
		}
		if c.Decisions[i].Batches[0].SubQueries[0] != got {
			t.Errorf("decision %d does not name the log's copy of its sub-query", i)
		}
	}
	if out := CheckExactlyOnce(c, true); len(out) != 0 {
		t.Errorf("a reused record reads as a violation: %q", out)
	}
}

func TestCheckSpanConservationFlagsViolations(t *testing.T) {
	good := obs.Span{Query: 1, Arrival: 0, Done: 10 * time.Millisecond, Queued: 4 * time.Millisecond, Disk: 6 * time.Millisecond}
	bad := obs.Span{Query: 2, Arrival: 0, Done: 10 * time.Millisecond, Queued: 4 * time.Millisecond}
	if out := CheckSpanConservation([]obs.Span{good}); len(out) != 0 {
		t.Errorf("conserving span flagged: %q", out)
	}
	if out := CheckSpanConservation([]obs.Span{good, bad}); !containsAny(out, "query 2") {
		t.Errorf("leaking span not flagged: %q", out)
	}
}

func TestCheckCacheBalanceFlagsViolations(t *testing.T) {
	if out := CheckCacheBalance(cache.Stats{Misses: 10, Evictions: 3, Corruptions: 1}, 6); len(out) != 0 {
		t.Errorf("balanced accounting flagged: %q", out)
	}
	if out := CheckCacheBalance(cache.Stats{Misses: 10, Evictions: 3}, 6); !containsAny(out, "cache accounting") {
		t.Errorf("unbalanced accounting not flagged: %q", out)
	}
}

func containsAny(out []string, want string) bool {
	for _, s := range out {
		if strings.Contains(s, want) {
			return true
		}
	}
	return false
}
