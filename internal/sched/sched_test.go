package sched

import (
	"testing"
	"time"

	"jaws/internal/field"
	"jaws/internal/geom"
	"jaws/internal/morton"
	"jaws/internal/query"
	"jaws/internal/store"
)

var testCost = CostModel{Tb: 50 * time.Millisecond, Tm: 20 * time.Microsecond}

func testSpace() geom.Space { return geom.Space{GridSide: 128, AtomSide: 32} }

// subQueryAt builds a sub-query of n positions in atom (i,j,k) of step for
// query qid.
func subQueryAt(qid query.ID, step int, i, j, k uint32, n int) *query.SubQuery {
	s := testSpace()
	atomLen := float64(s.AtomSide) * s.VoxelSize()
	pts := make([]geom.Position, n)
	for p := 0; p < n; p++ {
		frac := (float64(p) + 0.5) / float64(n)
		pts[p] = geom.Position{
			X: (float64(i) + frac) * atomLen,
			Y: (float64(j) + 0.5) * atomLen,
			Z: (float64(k) + 0.5) * atomLen,
		}
	}
	q := &query.Query{ID: qid, Step: step, Points: pts, Kernel: field.KernelNone}
	sqs, err := query.PreProcess(q, s)
	if err != nil {
		panic(err)
	}
	if len(sqs) != 1 {
		panic("subQueryAt positions spilled atoms")
	}
	return sqs[0]
}

func TestUtMetric(t *testing.T) {
	q := newQueues(testCost, nil)
	sq := subQueryAt(1, 0, 0, 0, 0, 100)
	q.add(sq, 0)
	aq := q.byAtom[sq.Atom]
	// W=100, φ=1: Ut = 100 / (0.05 + 100·20e-6) = 100/0.052.
	want := 100.0 / 0.052
	if got := q.ut(aq); got < want*0.999 || got > want*1.001 {
		t.Fatalf("Ut = %g, want %g", got, want)
	}
}

func TestUtResidentAtomSkipsIOCost(t *testing.T) {
	resident := func(store.AtomID) bool { return true }
	q := newQueues(testCost, resident)
	sq := subQueryAt(1, 0, 0, 0, 0, 100)
	q.add(sq, 0)
	aq := q.byAtom[sq.Atom]
	// φ=0: Ut = 100 / (100·20e-6) = 1/Tm.
	want := 1.0 / testCost.Tm.Seconds()
	if got := q.ut(aq); got < want*0.999 || got > want*1.001 {
		t.Fatalf("resident Ut = %g, want %g", got, want)
	}
}

func TestUtMoreContentionHigherScore(t *testing.T) {
	q := newQueues(testCost, nil)
	small := subQueryAt(1, 0, 0, 0, 0, 10)
	big := subQueryAt(2, 0, 1, 0, 0, 1000)
	q.add(small, 0)
	q.add(big, 0)
	if q.ut(q.byAtom[big.Atom]) <= q.ut(q.byAtom[small.Atom]) {
		t.Fatal("longer workload queue did not score higher")
	}
}

func TestUeAgeBias(t *testing.T) {
	q := newQueues(testCost, nil)
	old := subQueryAt(1, 0, 0, 0, 0, 5)
	hot := subQueryAt(2, 0, 1, 0, 0, 5000)
	q.add(old, 0)
	q.add(hot, 10*time.Second)
	now := 11 * time.Second
	// α=0: pure contention — hot wins.
	if q.ue(q.byAtom[hot.Atom], 0, now) <= q.ue(q.byAtom[old.Atom], 0, now) {
		t.Fatal("α=0 did not favour contention")
	}
	// α=1: pure age — old wins (11000 ms vs 1000 ms).
	if q.ue(q.byAtom[old.Atom], 1, now) <= q.ue(q.byAtom[hot.Atom], 1, now) {
		t.Fatal("α=1 did not favour age")
	}
}

func TestNoShareArrivalOrder(t *testing.T) {
	s := NewNoShare()
	// Query 2 arrives first, then query 1.
	s.Enqueue(subQueryAt(2, 0, 0, 0, 0, 10), 0)
	s.Enqueue(subQueryAt(2, 0, 1, 0, 0, 10), 0)
	s.Enqueue(subQueryAt(1, 0, 2, 0, 0, 10), time.Second)
	if s.Pending() != 3 {
		t.Fatalf("Pending = %d", s.Pending())
	}
	first := s.NextBatch(2 * time.Second)
	if len(first) != 2 {
		t.Fatalf("first NextBatch = %d batches, want query 2's two atoms", len(first))
	}
	for _, b := range first {
		if b.SubQueries[0].Query.ID != 2 {
			t.Fatal("NoShare broke arrival order")
		}
	}
	second := s.NextBatch(2 * time.Second)
	if len(second) != 1 || second[0].SubQueries[0].Query.ID != 1 {
		t.Fatal("second query not served next")
	}
	if s.NextBatch(0) != nil {
		t.Fatal("empty scheduler returned work")
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", s.Pending())
	}
}

func TestNoShareNeverCoSchedules(t *testing.T) {
	s := NewNoShare()
	// Two queries touch the same atom; each batch must contain sub-queries
	// of exactly one query.
	s.Enqueue(subQueryAt(1, 0, 0, 0, 0, 10), 0)
	s.Enqueue(subQueryAt(2, 0, 0, 0, 0, 10), 0)
	for batches := s.NextBatch(0); batches != nil; batches = s.NextBatch(0) {
		for _, b := range batches {
			qid := b.SubQueries[0].Query.ID
			for _, sq := range b.SubQueries {
				if sq.Query.ID != qid {
					t.Fatal("NoShare co-scheduled two queries")
				}
			}
		}
	}
}

func TestLifeRaftPicksMostContended(t *testing.T) {
	s := NewLifeRaft(testCost, 0, nil)
	s.Enqueue(subQueryAt(1, 0, 0, 0, 0, 10), 0)
	s.Enqueue(subQueryAt(2, 0, 1, 0, 0, 500), 0)
	s.Enqueue(subQueryAt(3, 0, 1, 0, 0, 500), 0) // same atom as query 2
	batches := s.NextBatch(time.Second)
	if len(batches) != 1 {
		t.Fatalf("LifeRaft scheduled %d atoms, want exactly 1", len(batches))
	}
	b := batches[0]
	if b.Atom != (store.AtomID{Step: 0, Code: morton.Encode(1, 0, 0)}) {
		t.Fatalf("picked %v, want the contended atom", b.Atom)
	}
	if len(b.SubQueries) != 2 || len(b.SubQueries[0].Index)+len(b.SubQueries[1].Index) != 1000 {
		t.Fatalf("batch did not co-schedule both queries: %d subs", len(b.SubQueries))
	}
}

func TestLifeRaftAlphaOneServesOldest(t *testing.T) {
	s := NewLifeRaft(testCost, 1, nil)
	s.Enqueue(subQueryAt(1, 0, 0, 0, 0, 1), 0)                   // old, tiny
	s.Enqueue(subQueryAt(2, 0, 1, 0, 0, 100000), 10*time.Second) // new, huge
	batches := s.NextBatch(20 * time.Second)
	if batches[0].SubQueries[0].Query.ID != 1 {
		t.Fatal("α=1 LifeRaft did not serve the oldest queue")
	}
}

func TestLifeRaftAlphaClamped(t *testing.T) {
	if NewLifeRaft(testCost, -1, nil).Alpha() != 0 {
		t.Fatal("negative α not clamped")
	}
	if NewLifeRaft(testCost, 2, nil).Alpha() != 1 {
		t.Fatal("α>1 not clamped")
	}
}

func TestLifeRaftEmptyNextBatch(t *testing.T) {
	if NewLifeRaft(testCost, 0, nil).NextBatch(0) != nil {
		t.Fatal("empty LifeRaft returned work")
	}
}

func TestJAWSTwoLevelSelection(t *testing.T) {
	s := NewJAWS(JAWSConfig{Cost: testCost, BatchSize: 3, InitialAlpha: 0})
	// Step 0: three hot atoms + one cold; step 1: one lukewarm atom.
	s.Enqueue(subQueryAt(1, 0, 0, 0, 0, 500), 0)
	s.Enqueue(subQueryAt(2, 0, 1, 0, 0, 500), 0)
	s.Enqueue(subQueryAt(3, 0, 2, 0, 0, 500), 0)
	s.Enqueue(subQueryAt(4, 0, 3, 0, 0, 1), 0)
	s.Enqueue(subQueryAt(5, 1, 0, 0, 0, 50), 0)
	batches := s.NextBatch(time.Second)
	if len(batches) == 0 {
		t.Fatal("no batches")
	}
	for _, b := range batches {
		if b.Atom.Step != 0 {
			t.Fatalf("two-level selection leaked step %d", b.Atom.Step)
		}
	}
	// The cold atom (1 position) is below the step mean and must not be
	// selected; the three hot atoms all exceed the mean.
	if len(batches) != 3 {
		t.Fatalf("selected %d atoms, want the 3 above-mean atoms", len(batches))
	}
	for i := 1; i < len(batches); i++ {
		if batches[i-1].Atom.Key() >= batches[i].Atom.Key() {
			t.Fatal("batch atoms not in Morton order")
		}
	}
}

func TestJAWSBatchSizeCapsSelection(t *testing.T) {
	s := NewJAWS(JAWSConfig{Cost: testCost, BatchSize: 2, InitialAlpha: 0})
	// Many equal hot atoms plus one clearly-below-mean atom so "above
	// mean" selects the hot ones.
	for i := uint32(0); i < 4; i++ {
		s.Enqueue(subQueryAt(query.ID(i+1), 0, i, 0, 0, 500), 0)
	}
	s.Enqueue(subQueryAt(99, 0, 0, 1, 0, 1), 0)
	batches := s.NextBatch(time.Second)
	if len(batches) > 2 {
		t.Fatalf("batch size 2 exceeded: %d", len(batches))
	}
}

func TestJAWSFallbackWhenAllEqual(t *testing.T) {
	s := NewJAWS(JAWSConfig{Cost: testCost, BatchSize: 5, InitialAlpha: 0})
	// Two identical queues: neither strictly exceeds the mean; JAWS must
	// still make progress with the single best atom.
	s.Enqueue(subQueryAt(1, 0, 0, 0, 0, 100), 0)
	s.Enqueue(subQueryAt(2, 0, 1, 0, 0, 100), 0)
	batches := s.NextBatch(time.Second)
	if len(batches) != 1 {
		t.Fatalf("fallback selected %d atoms, want 1", len(batches))
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d after one batch", s.Pending())
	}
}

func TestJAWSDefaultBatchSize(t *testing.T) {
	if NewJAWS(JAWSConfig{Cost: testCost}).k != 15 {
		t.Fatal("default k != 15 (the paper's evaluation setting)")
	}
}

func TestJAWSDrainsEverything(t *testing.T) {
	s := NewJAWS(JAWSConfig{Cost: testCost, BatchSize: 4, InitialAlpha: 0.5})
	total := 0
	for step := 0; step < 3; step++ {
		for i := uint32(0); i < 4; i++ {
			s.Enqueue(subQueryAt(query.ID(step*10+int(i)), step, i, i, 0, 10+int(i)*5), 0)
			total++
		}
	}
	seen := 0
	for rounds := 0; s.Pending() > 0; rounds++ {
		batches := s.NextBatch(time.Duration(rounds) * time.Second)
		if len(batches) == 0 {
			t.Fatal("pending work but no batches")
		}
		for _, b := range batches {
			seen += len(b.SubQueries)
		}
		if rounds > 1000 {
			t.Fatal("drain did not terminate")
		}
	}
	if seen != total {
		t.Fatalf("drained %d sub-queries, want %d", seen, total)
	}
}

func TestUtilityProvider(t *testing.T) {
	s := NewJAWS(JAWSConfig{Cost: testCost, BatchSize: 3})
	sq := subQueryAt(1, 2, 0, 0, 0, 100)
	s.Enqueue(sq, 0)
	if s.AtomUtility(sq.Atom) <= 0 {
		t.Fatal("pending atom has zero utility")
	}
	if s.AtomUtility(store.AtomID{Step: 9, Code: 0}) != 0 {
		t.Fatal("idle atom has nonzero utility")
	}
	if s.StepMean(2) <= 0 {
		t.Fatal("pending step has zero mean")
	}
	steps := s.PendingSteps()
	if len(steps) != 1 || steps[0] != 2 {
		t.Fatalf("PendingSteps = %v", steps)
	}
}

func TestAlphaControllerRule1DecreasesAlpha(t *testing.T) {
	c := newAlphaController(0.5, true)
	c.onRunEnd(1.0, 1.0) // baseline
	// Response time doubling, throughput flat → bias toward contention.
	c.onRunEnd(3.0, 1.0)
	if c.alpha >= 0.5 {
		t.Fatalf("α = %g, want decreased from 0.5", c.alpha)
	}
	if c.alpha < 0 {
		t.Fatalf("α = %g fell below 0", c.alpha)
	}
}

func TestAlphaControllerRule2IncreasesAlpha(t *testing.T) {
	c := newAlphaController(0.3, true)
	c.onRunEnd(10.0, 5.0)
	// Saturation falls (rt ratio < 1) and throughput falls faster.
	c.onRunEnd(7.0, 1.0)
	if c.alpha <= 0.3 {
		t.Fatalf("α = %g, want increased from 0.3", c.alpha)
	}
	if c.alpha > 1 {
		t.Fatalf("α = %g exceeded 1", c.alpha)
	}
}

func TestAlphaControllerDisabled(t *testing.T) {
	c := newAlphaController(0.5, false)
	c.onRunEnd(1, 1)
	c.onRunEnd(100, 0.001)
	if c.alpha != 0.5 {
		t.Fatalf("non-adaptive α moved to %g", c.alpha)
	}
}

func TestAlphaControllerExploresWhenFlat(t *testing.T) {
	c := newAlphaController(0.5, true)
	for i := 0; i < 4; i++ {
		c.onRunEnd(2.0, 3.0) // perfectly flat
	}
	if c.alpha == 0.5 {
		t.Fatal("controller stuck at initial α despite flat trade-off curve")
	}
}

func TestAlphaControllerBoundsProperty(t *testing.T) {
	// α must remain in [0,1] under any observation sequence.
	c := newAlphaController(0.5, true)
	vals := []struct{ rt, tp float64 }{
		{1, 1}, {10, 0.1}, {0.01, 5}, {100, 100}, {0.5, 0.5}, {3, 0.2}, {0.1, 0.1},
	}
	for _, v := range vals {
		c.onRunEnd(v.rt, v.tp)
		if c.alpha < 0 || c.alpha > 1 {
			t.Fatalf("α = %g out of bounds", c.alpha)
		}
	}
	if len(c.History) == 0 {
		t.Fatal("controller recorded no history")
	}
}

func BenchmarkJAWSNextBatch(b *testing.B) {
	s := NewJAWS(JAWSConfig{Cost: testCost, BatchSize: 15})
	for step := 0; step < 8; step++ {
		for i := uint32(0); i < 4; i++ {
			for j := uint32(0); j < 4; j++ {
				s.Enqueue(subQueryAt(query.ID(step*100+int(i)*10+int(j)), step, i, j, 0, 50), 0)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batches := s.NextBatch(time.Second)
		// Re-enqueue to keep the scheduler loaded.
		for _, batch := range batches {
			for _, sq := range batch.SubQueries {
				s.Enqueue(sq, time.Second)
			}
		}
	}
}
