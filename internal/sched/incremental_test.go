package sched

import (
	"math/rand"
	"testing"
	"time"

	"jaws/internal/morton"
	"jaws/internal/query"
	"jaws/internal/store"
)

// Utility memoization: with a residency version source installed, U_t and
// the per-step Σ U_t must be computed once per epoch, not once per read —
// the regression the recompute counters pin. (stepMeanUt and PendingSteps
// used to rescan on every call.)
func TestUtilityMemoizationCountsRecomputes(t *testing.T) {
	var version uint64 = 1
	q := newQueues(testCost, nil)
	q.setResidencyVersion(func() uint64 { return version })
	q.add(subQueryAt(1, 0, 0, 0, 0, 100), 0)
	q.add(subQueryAt(2, 0, 1, 0, 0, 200), 0)
	q.add(subQueryAt(3, 1, 0, 0, 0, 50), 0)
	q.syncResidency()

	base := q.utRecomputes
	first := q.stepMeanUt(0)
	afterFirst := q.utRecomputes - base
	if afterFirst == 0 {
		t.Fatal("first StepMean read computed nothing")
	}
	for i := 0; i < 5; i++ {
		if got := q.stepMeanUt(0); got != first {
			t.Fatalf("StepMean changed across memoized reads: %v then %v", first, got)
		}
	}
	if extra := q.utRecomputes - base - afterFirst; extra != 0 {
		t.Fatalf("memoized StepMean reads recomputed %d utilities, want 0", extra)
	}
	sumBase := q.stepSumRecomputes
	q.stepMeanUt(0)
	if q.stepSumRecomputes != sumBase {
		t.Fatal("memoized StepMean recomputed the step aggregate")
	}

	// Residency change: the next sync must invalidate every memo.
	version++
	q.syncResidency()
	if q.stepMeanUt(0) != first {
		t.Fatal("identical inputs must reproduce the identical float after recompute")
	}
	if q.stepSumRecomputes == sumBase {
		t.Fatal("version bump did not trigger an aggregate recompute")
	}

	// New work on an atom invalidates just that memo path, same version.
	utBase := q.utRecomputes
	q.add(subQueryAt(4, 0, 0, 0, 0, 10), 0)
	q.stepMeanUt(0)
	if q.utRecomputes == utBase {
		t.Fatal("enqueue on a memoized atom did not invalidate its utility")
	}
}

// The one selection kernel must not have cost plain JAWS its memoized
// path: at α = 0 with a version source, repeated decisions over unchanged
// buckets reuse the per-step Σ U_t instead of rebuilding them — also with
// a cross-step clause, which adds no score factor, and with a gate-aware
// clause, whose factors are read at Enqueue and so change only with the
// bucket (its gated sums have a memo of their own).
func TestJAWSAlphaZeroUsesMemoizedStepSums(t *testing.T) {
	build := func(spec PolicySpec) *JAWS {
		s := NewJAWS(JAWSConfig{Cost: testCost, BatchSize: 1})
		s.SetResidencyVersion(func() uint64 { return 1 })
		spec.Wrap(s)
		s.SetGateSource(func(q query.ID) GateState { return GateState(q % 3) })
		for step := 0; step < 4; step++ {
			for a := uint32(0); a < 3; a++ {
				s.Enqueue(subQueryAt(query.ID(step*10+int(a)+1), step, a, 0, 0, 20+10*step+int(a)), 0)
			}
		}
		return s
	}
	// Each decision takes one atom of one bucket: that bucket's sum is
	// rebuilt next round, the other three are memo hits.
	rebuilds := func(s *JAWS) int {
		s.NextBatch(0)
		base := s.q.stepSumRecomputes
		s.NextBatch(time.Millisecond)
		return s.q.stepSumRecomputes - base
	}
	if got := rebuilds(build(PolicySpec{})); got != 1 {
		t.Errorf("plain JAWS rebuilt %d step sums in one decision, want 1 (the bucket the last decision touched)", got)
	}
	if got := rebuilds(build(PolicySpec{CrossStep: &CrossStepParams{Span: 2}})); got != 1 {
		t.Errorf("JAWS+cross-step rebuilt %d step sums in one decision, want 1", got)
	}
	gated := build(PolicySpec{GateAware: &GateAwareParams{Discount: 0.5, Boost: 2}})
	if got := rebuilds(gated); got != 1 {
		t.Errorf("JAWS+gate-aware rebuilt %d step sums in one decision, want 1", got)
	}
}

// Without a version source every sync starts a new epoch: reads between
// two syncs are memo hits, and the first read after each sync recomputes
// (the residency may have changed; there is no counter to say it did not).
func TestNoVersionSourceAlwaysRecomputes(t *testing.T) {
	q := newQueues(testCost, nil)
	q.add(subQueryAt(1, 0, 0, 0, 0, 100), 0)
	base, utBase := q.stepSumRecomputes, q.utRecomputes
	for i := 0; i < 4; i++ {
		q.syncResidency()
		for j := 0; j < 3; j++ {
			q.stepMeanUt(0)
		}
	}
	if got := q.stepSumRecomputes - base; got != 4 {
		t.Fatalf("un-versioned queues recomputed the aggregate %d times over 4 syncs × 3 reads, want 4", got)
	}
	if got := q.utRecomputes - utBase; got != 4 {
		t.Fatalf("un-versioned queues recomputed U_t %d times over 4 syncs × 3 reads, want 4", got)
	}
}

// PendingSteps is maintained incrementally: ascending, tracking bucket
// creation and removal, with no per-call work.
func TestPendingStepsIncremental(t *testing.T) {
	q := newQueues(testCost, nil)
	q.add(subQueryAt(1, 5, 0, 0, 0, 10), 0)
	q.add(subQueryAt(2, 1, 0, 0, 0, 10), 0)
	q.add(subQueryAt(3, 3, 0, 0, 0, 10), 0)
	want := []int{1, 3, 5}
	if len(q.steps) != len(want) {
		t.Fatalf("steps = %v, want %v", q.steps, want)
	}
	for i := range want {
		if q.steps[i] != want[i] {
			t.Fatalf("steps = %v, want %v", q.steps, want)
		}
	}
	q.beginDecision()
	q.take(store.AtomID{Step: 3})
	if len(q.steps) != 2 || q.steps[0] != 1 || q.steps[1] != 5 {
		t.Fatalf("after take: steps = %v, want [1 5]", q.steps)
	}
}

// A version source changes how long a memo lives, never a decision: a
// scheduler with one (memos survive until the version moves) must decide
// and report exactly as the same scheduler without one (every call starts
// a new epoch), through random enqueues, residency flips, utility reads,
// run ends and decisions.
func TestVersionedMatchesUnversioned(t *testing.T) {
	kinds := []struct {
		name  string
		build func(resident func(store.AtomID) bool) Scheduler
	}{
		{"LifeRaft-alpha0", func(r func(store.AtomID) bool) Scheduler { return NewLifeRaft(testCost, 0, r) }},
		{"LifeRaft-alpha0.5", func(r func(store.AtomID) bool) Scheduler { return NewLifeRaft(testCost, 0.5, r) }},
		{"JAWS", func(r func(store.AtomID) bool) Scheduler {
			return NewJAWS(JAWSConfig{Cost: testCost, BatchSize: 3, Resident: r})
		}},
		{"JAWS-adaptive", func(r func(store.AtomID) bool) Scheduler {
			return NewJAWS(JAWSConfig{Cost: testCost, BatchSize: 3, InitialAlpha: 0.5, Adaptive: true, Resident: r})
		}},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				residentSet := make(map[store.AtomID]bool)
				var version uint64 = 1
				resident := func(id store.AtomID) bool { return residentSet[id] }

				versioned := kind.build(resident)
				versioned.(ResidencyVersioned).SetResidencyVersion(func() uint64 { return version })
				plain := kind.build(resident)
				vu, pu := versioned.(UtilityProvider), plain.(UtilityProvider)

				now := time.Duration(0)
				qid := 1
				for op := 0; op < 300; op++ {
					now += time.Millisecond
					switch r := rng.Intn(12); {
					case r < 6 || versioned.Pending() == 0:
						// Random atom in a small universe so queues collide.
						sq := subQueryAt(query.ID(qid), rng.Intn(2),
							uint32(rng.Intn(3)), uint32(rng.Intn(2)), 0, rng.Intn(200)+1)
						qid++
						versioned.Enqueue(sq, now)
						plain.Enqueue(sq, now)
					case r < 8:
						// Flip residency of a pending or absent atom; bump the version.
						id := store.AtomID{Step: rng.Intn(2), Code: morton.Code(rng.Intn(64))}
						residentSet[id] = !residentSet[id]
						version++
					case r < 9:
						id := store.AtomID{Step: rng.Intn(2), Code: morton.Code(rng.Intn(64))}
						if v, p := vu.AtomUtility(id), pu.AtomUtility(id); v != p {
							t.Fatalf("seed %d op %d: AtomUtility(%v) %v versioned, %v plain", seed, op, id, v, p)
						}
						step := rng.Intn(2)
						if v, p := vu.StepMean(step), pu.StepMean(step); v != p {
							t.Fatalf("seed %d op %d: StepMean(%d) %v versioned, %v plain", seed, op, step, v, p)
						}
					case r < 10:
						rt, tp := 1+rng.Float64(), 1+rng.Float64()
						versioned.OnRunEnd(rt, tp)
						plain.OnRunEnd(rt, tp)
						if versioned.Alpha() != plain.Alpha() {
							t.Fatalf("seed %d op %d: α %v versioned, %v plain", seed, op, versioned.Alpha(), plain.Alpha())
						}
					default:
						vb := versioned.NextBatch(now)
						pb := plain.NextBatch(now)
						if len(vb) != len(pb) {
							t.Fatalf("seed %d op %d: %d batches versioned, %d plain", seed, op, len(vb), len(pb))
						}
						for i := range vb {
							if vb[i].Atom != pb[i].Atom || len(vb[i].SubQueries) != len(pb[i].SubQueries) {
								t.Fatalf("seed %d op %d: batch %d is %v (%d subs) versioned, %v (%d subs) plain",
									seed, op, i, vb[i].Atom, len(vb[i].SubQueries), pb[i].Atom, len(pb[i].SubQueries))
							}
						}
					}
				}
			}
		})
	}
}
