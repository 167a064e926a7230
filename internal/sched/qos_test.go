package sched

import (
	"bytes"
	"testing"
	"time"

	"jaws/internal/obs"
	"jaws/internal/query"
)

func newQoSForTest(stretch float64, horizon time.Duration) *JAWS {
	s := NewJAWS(JAWSConfig{Cost: testCost, BatchSize: 4, InitialAlpha: 0})
	NewQoS(s, testCost, stretch, horizon)
	return s
}

func TestQoSDefaults(t *testing.T) {
	q := newQoSForTest(0, 0)
	if q.qos.stretch != 8 || q.qos.horizon != 2*time.Second {
		t.Fatalf("defaults: stretch=%g horizon=%v", q.qos.stretch, q.qos.horizon)
	}
	if q.Name() == "" {
		t.Fatal("empty name")
	}
	// A zero cost model means the default, to the deadlines and to the
	// atom queues alike.
	inner := NewJAWS(JAWSConfig{BatchSize: 4})
	NewQoS(inner, CostModel{}, 0, 0)
	if inner.qos.cost != DefaultCost() || inner.q.cost != DefaultCost() {
		t.Fatalf("zero cost: QoS scores with %+v, the queues with %+v; want %+v", inner.qos.cost, inner.q.cost, DefaultCost())
	}
}

func TestQoSFallsThroughToJAWS(t *testing.T) {
	// With every deadline far away, QoS must behave exactly like JAWS:
	// pick the contended atom first.
	q := newQoSForTest(1000, time.Millisecond)
	q.Enqueue(subQueryAt(1, 0, 0, 0, 0, 5), 0)
	q.Enqueue(subQueryAt(2, 0, 1, 0, 0, 800), 0)
	q.Enqueue(subQueryAt(3, 0, 1, 0, 0, 800), 0)
	batches := q.NextBatch(time.Millisecond)
	if len(batches) == 0 {
		t.Fatal("no batches")
	}
	found := false
	for _, b := range batches {
		for _, sq := range b.SubQueries {
			if sq.Query.ID == 2 || sq.Query.ID == 3 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("contended atom not served in the contention regime")
	}
}

func TestQoSServesUrgentFirst(t *testing.T) {
	// A tiny old query with a tight deadline must preempt a huge
	// contended queue once its deadline enters the horizon.
	q := newQoSForTest(1, 500*time.Millisecond) // deadline ≈ arrival + service
	small := subQueryAt(1, 0, 0, 0, 0, 2)
	small.Query.Arrival = 0
	q.Enqueue(small, 0)
	big1 := subQueryAt(2, 0, 1, 0, 0, 5000)
	big1.Query.Arrival = 10 * time.Second
	q.Enqueue(big1, 10*time.Second)
	big2 := subQueryAt(3, 0, 1, 0, 0, 5000)
	big2.Query.Arrival = 10 * time.Second
	q.Enqueue(big2, 10*time.Second)

	batches := q.NextBatch(10 * time.Second)
	if len(batches) == 0 {
		t.Fatal("no batches")
	}
	if batches[0].SubQueries[0].Query.ID != 1 {
		t.Fatalf("urgent query not served first: got query %d", batches[0].SubQueries[0].Query.ID)
	}
}

func TestQoSCountsDeadlineMisses(t *testing.T) {
	q := newQoSForTest(1, time.Millisecond)
	sq := subQueryAt(1, 0, 0, 0, 0, 2)
	sq.Query.Arrival = 0
	q.Enqueue(sq, 0)
	// Serve it absurdly late: the deadline (≈ tens of ms) is long gone.
	q.NextBatch(time.Hour)
	if q.DeadlineMisses() != 1 {
		t.Fatalf("DeadlineMisses = %d, want 1", q.DeadlineMisses())
	}
}

func TestQoSDrainsEverything(t *testing.T) {
	q := newQoSForTest(4, 200*time.Millisecond)
	total := 0
	for step := 0; step < 2; step++ {
		for i := uint32(0); i < 4; i++ {
			sq := subQueryAt(query.ID(step*100+int(i)+1), step, i, 0, 0, 20+int(i)*30)
			sq.Query.Arrival = time.Duration(i) * 10 * time.Millisecond
			q.Enqueue(sq, sq.Query.Arrival)
			total++
		}
	}
	served := 0
	now := time.Duration(0)
	for rounds := 0; q.Pending() > 0; rounds++ {
		for _, b := range q.NextBatch(now) {
			served += len(b.SubQueries)
		}
		now += 100 * time.Millisecond
		if rounds > 1000 {
			t.Fatal("drain did not terminate")
		}
	}
	if served != total {
		t.Fatalf("served %d, want %d", served, total)
	}
}

func TestQoSUtilityProvider(t *testing.T) {
	q := newQoSForTest(8, time.Second)
	sq := subQueryAt(1, 3, 0, 0, 0, 50)
	q.Enqueue(sq, 0)
	if q.AtomUtility(sq.Atom) <= 0 {
		t.Fatal("no utility for pending atom")
	}
	if q.StepMean(3) <= 0 {
		t.Fatal("no step mean")
	}
	if steps := q.PendingSteps(); len(steps) != 1 || steps[0] != 3 {
		t.Fatalf("PendingSteps = %v", steps)
	}
	if q.Alpha() != 0 {
		t.Fatalf("Alpha = %g", q.Alpha())
	}
	q.OnRunEnd(1, 1) // must not panic
}

// TestQoSTracesEveryRound is the regression test for urgent rounds being
// invisible to the tracer: every non-empty NextBatch — earliest-deadline
// and fall-through alike — must emit one Decision event per served atom
// under the scheduler's one name, and fill the flight-recorder capture.
func TestQoSTracesEveryRound(t *testing.T) {
	// Deadline ≈ arrival + 2× service: a sub-query enqueued with an old
	// arrival is urgent at once, one that arrives "now" is not for a while.
	q := newQoSForTest(2, 10*time.Millisecond)
	var sink bytes.Buffer
	tr := obs.NewTracer(&sink)
	q.SetTracer(tr)
	q.SetExplain(true)

	enqueue := func(id query.ID, atom uint32, arrival, now time.Duration) {
		sq := subQueryAt(id, 0, atom, 0, 0, 40)
		sq.Query.Arrival = arrival
		q.Enqueue(sq, now)
	}
	now := time.Hour
	enqueue(1, 0, 0, now)   // overdue: urgent
	enqueue(2, 1, now, now) // fresh: elastic
	enqueue(3, 2, now, now)

	var rounds, urgentRounds, atoms int
	for q.Pending() > 0 {
		before := tr.Total()
		batches := q.NextBatch(now)
		if len(batches) == 0 {
			t.Fatal("no batches with pending work")
		}
		rounds++
		atoms += len(batches)
		if got := tr.Total() - before; got != int64(len(batches)) {
			t.Fatalf("round %d served %d atoms but traced %d decision events", rounds, len(batches), got)
		}
		exp := q.LastExplain()
		if exp == nil || len(exp.Chosen) != len(batches) || exp.Sched != "JAWS+QoS" {
			t.Fatalf("round %d: capture %+v does not describe the %d served atoms", rounds, exp, len(batches))
		}
		if exp.Urgent {
			urgentRounds++
		}
	}
	if urgentRounds == 0 || urgentRounds == rounds {
		t.Fatalf("%d of %d rounds were urgent; the test must cover both paths", urgentRounds, rounds)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	decisions := 0
	if err := obs.ScanTrace(&sink, func(ev *obs.Event) error {
		if ev.Kind != obs.KindDecision || ev.Sched != "JAWS+QoS" {
			t.Fatalf("unexpected event %+v", ev)
		}
		decisions++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if decisions != atoms {
		t.Fatalf("traced %d decision events for %d served atoms", decisions, atoms)
	}
}

// TestQoSComposesWithTailPolicies pins the one defined interaction of the
// urgent pre-pass with the batch-bound steer: an urgent round that leaves
// urgent atoms beyond k reports zero truncation (they lost no utility
// race), so the round adds nothing to the flight recorder's PassBatchFull
// and counts toward the idle streak.
func TestQoSComposesWithTailPolicies(t *testing.T) {
	inner := NewJAWS(JAWSConfig{Cost: testCost, BatchSize: 2})
	PolicySpec{
		GateAware:     &GateAwareParams{Discount: 0.5, Boost: 2},
		AdaptiveBatch: &AdaptiveBatchParams{Min: 1, Max: 4, Grow: 1, Shrink: 1, Full: 1, Idle: 1},
	}.Wrap(inner)
	NewQoS(inner, testCost, 1, time.Second)
	inner.SetExplain(true)
	inner.SetGateSource(func(id query.ID) GateState { return GateBlocked })

	// Four overdue atoms against k = 2: an urgent round, two atoms left over.
	for a := uint32(0); a < 4; a++ {
		sq := subQueryAt(query.ID(a+1), 0, a, 0, 0, 40)
		inner.Enqueue(sq, time.Hour)
	}
	if got := inner.NextBatch(time.Hour); len(got) != 2 {
		t.Fatalf("urgent round served %d atoms, want k = 2", len(got))
	}
	exp := inner.LastExplain()
	if !exp.Urgent || len(exp.Truncated) != 0 {
		t.Fatalf("urgent round capture: urgent=%v truncated=%d, want true/0", exp.Urgent, len(exp.Truncated))
	}
	// The gate factor reaches the recorded score on urgent rounds too.
	if c := exp.Chosen[0]; c.Ue != c.Ut*0.5 {
		t.Fatalf("urgent round recorded score %v, want the discounted %v", c.Ue, c.Ut*0.5)
	}
	// Idle = 1: the zero-truncation round shrank k by one.
	if inner.k != 1 {
		t.Fatalf("k after one urgent round = %d, want 1 (one idle round)", inner.k)
	}
	if inner.DeadlineMisses() != 2 {
		t.Fatalf("DeadlineMisses = %d, want the 2 overdue queries served", inner.DeadlineMisses())
	}
}
