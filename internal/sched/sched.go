// Package sched implements the query schedulers the paper evaluates:
//
//   - NoShare — every query evaluated independently, in arrival order;
//   - LifeRaft — data-driven batch processing by the (aged) workload
//     throughput metric of §III.C, with a fixed age bias α;
//   - JAWS — LifeRaft extended with two-level scheduling (§V) and
//     adaptive starvation resistance (§V.A). Job-aware gating (§IV) is
//     layered on by the execution engine via the jobgraph package.
//
// A scheduler owns the per-atom workload queues: each pending sub-query
// sits in the queue of its primary atom, and the scheduler picks which
// atom queue(s) to drain next.
//
// The decision path is incremental and allocation-free: atom queues live
// in per-step Morton-sorted buckets (no per-decision sort), Eq. 1/2
// utilities and per-step aggregates are memoized behind a cache-residency
// version counter, and batches reuse pooled structures. The differential
// oracle (internal/oracle) certifies that every decision is byte-identical
// to a naive rescan reference model.
package sched

import (
	"time"

	"jaws/internal/arena"
	"jaws/internal/obs"
	"jaws/internal/query"
	"jaws/internal/store"
)

// CostModel carries the constants of Eq. 1: T_b estimates the time to
// read an atom from disk and T_m the computation cost of a single
// position.
type CostModel struct {
	Tb time.Duration
	Tm time.Duration
}

// DefaultCost returns the one T_b/T_m pair of the reproduction: 41 ms per
// atom read, 20 µs per position.
func DefaultCost() CostModel {
	return CostModel{Tb: 41 * time.Millisecond, Tm: 20 * time.Microsecond}
}

// Batch is one unit of execution handed to the engine: all pending
// sub-queries of one atom, co-scheduled in a single pass over the data.
type Batch struct {
	Atom       store.AtomID
	SubQueries []*query.SubQuery
}

// Scheduler is the engine-facing interface all three algorithms satisfy.
// Implementations are not safe for concurrent use; the engine serializes.
type Scheduler interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Enqueue admits one pre-processed sub-query at virtual time now.
	//
	// Ownership: sq is the engine's and valid until its query completes —
	// the engine then reuses the record for a later query's sub-query. A
	// scheduler holds it only while it is queued; a recorder must copy.
	Enqueue(sq *query.SubQuery, now time.Duration)
	// NextBatch selects and removes the next batch(es) of work. It
	// returns nil when no work is pending.
	//
	// Ownership: the returned slice and the batches' SubQueries slices
	// are valid only until the next NextBatch call on the same scheduler —
	// schedulers recycle the underlying storage. Callers that retain a
	// decision (recorders, tracers) must copy it.
	NextBatch(now time.Duration) []Batch
	// Pending reports the number of queued sub-queries.
	Pending() int
	// OnRunEnd delivers the measured mean response time (seconds) and
	// query throughput (queries/second) of the run that just ended;
	// adaptive schedulers tune their age bias here.
	OnRunEnd(rt, tp float64)
	// Alpha reports the current age bias (diagnostic; 0 for NoShare).
	Alpha() float64
}

// Traced is implemented by schedulers that can emit per-decision trace
// events (the atom picked, the decision's batch size, and the U_t/U_e/α
// values that justified the pick). The engine installs the tracer when
// observability is configured; a nil tracer disables emission.
type Traced interface {
	SetTracer(t *obs.Tracer)
}

// UtilityProvider is implemented by contention-based schedulers that can
// expose their ranking for cache coordination (URC, §V.B).
type UtilityProvider interface {
	// AtomUtility returns the current workload-throughput metric of the
	// atom (0 if it has no pending work).
	AtomUtility(id store.AtomID) float64
	// StepMean returns the mean workload throughput of the step's pending
	// atoms (0 if the step has no pending work).
	StepMean(step int) float64
	// PendingSteps lists the steps with pending work, ascending. The
	// returned slice is owned by the scheduler and must not be mutated or
	// retained across scheduler calls.
	PendingSteps() []int
}

// ResidencyVersioned is implemented by schedulers that memoize
// φ(i)-dependent utility values behind a residency version counter: the
// counter must change whenever the set of cache-resident atoms may have
// changed (the cache's mutation counter). Without a version source every
// scheduler call starts a new memo epoch — still exact, just not
// incremental across calls. The engine installs the cache's Version
// method.
type ResidencyVersioned interface {
	SetResidencyVersion(fn func() uint64)
}

// observed is the observability state every scheduler carries: the
// decision tracer (Traced) and the flight-recorder capture (Explained).
// Both are off by default so the decision path stays allocation-free.
type observed struct {
	trace   *obs.Tracer
	explain bool
	exp     Explain
}

// SetTracer implements Traced.
func (o *observed) SetTracer(t *obs.Tracer) { o.trace = t }

// SetExplain implements Explained.
func (o *observed) SetExplain(on bool) { o.explain = on }

// LastExplain implements Explained.
func (o *observed) LastExplain() *Explain {
	if !o.explain {
		return nil
	}
	return &o.exp
}

// queueCore is what the contention-based schedulers (LifeRaft, JAWS)
// share: the per-atom workload queues and every accessor that only reads
// them — UtilityProvider, ResidencyVersioned, Pending. The schedulers
// embed it and add their selection rule.
type queueCore struct {
	observed
	q *queues
}

// Pending implements Scheduler.
func (c *queueCore) Pending() int { return c.q.subs }

// SetResidencyVersion implements ResidencyVersioned.
func (c *queueCore) SetResidencyVersion(fn func() uint64) { c.q.setResidencyVersion(fn) }

// AtomUtility implements UtilityProvider.
func (c *queueCore) AtomUtility(id store.AtomID) float64 {
	c.q.syncResidency()
	if aq, ok := c.q.byAtom[id]; ok {
		return c.q.ut(aq)
	}
	return 0
}

// StepMean implements UtilityProvider.
func (c *queueCore) StepMean(step int) float64 {
	c.q.syncResidency()
	return c.q.stepMeanUt(step)
}

// PendingSteps implements UtilityProvider: the memoized ascending step
// list (no per-call allocation; do not mutate).
func (c *queueCore) PendingSteps() []int { return c.q.steps }

// atomQueue is the workload queue of one atom: the union of the pending
// W_j^i over all queries (§III.C).
type atomQueue struct {
	id        store.AtomID
	subs      []*query.SubQuery
	positions int
	oldest    time.Duration // enqueue time of the oldest sub-query
	// deadline is scratch of the QoS urgent pre-pass: the earliest
	// completion-time bound over the pending queries, written and read
	// within one decision.
	deadline time.Duration
	// releasing and blocked count the pending sub-queries whose query read
	// GateReleasing and GateBlocked at Enqueue (the gate-aware score
	// factor's inputs; both stay 0 without a gate-aware clause and source).
	releasing, blocked int32

	// ut memoizes the Eq. 1 value, valid iff utSeen == queues.epoch
	// (see index.go for the invariant).
	ut     float64
	utSeen uint64
}

// queues indexes the atom queues by atom and by time step. See index.go
// for the incremental structures (sorted step buckets, memo epochs and the
// freelists). The schedulers select by scanning the buckets in key order;
// the memos, not a separate index, are what make the scan cheap.
type queues struct {
	byAtom   map[store.AtomID]*atomQueue
	buckets  []*stepBucket // step-ascending; buckets[i].step == steps[i]
	steps    []int         // memoized PendingSteps answer
	subs     int
	resident func(store.AtomID) bool
	cost     CostModel

	// Residency-version gating for the utility memos (see syncResidency).
	resVersion func() uint64
	lastRes    uint64
	haveRes    bool
	epoch      uint64

	// Freelists and the deferred-recycle list backing the zero-allocation
	// decision path; new atom queues and their lists are carved from records
	// and lists.
	records     arena.Arena[atomQueue]
	lists       arena.Arena[*query.SubQuery]
	freeAtoms   []*atomQueue
	freeBuckets []*stepBucket
	released    []*atomQueue

	// Recompute counters (regression tests pin that memoization works).
	utRecomputes      int
	stepSumRecomputes int
}

// newQueues builds a scheduler's atom queues; a zero cost means DefaultCost().
func newQueues(cost CostModel, resident func(store.AtomID) bool) *queues {
	if cost == (CostModel{}) {
		cost = DefaultCost()
	}
	if resident == nil {
		resident = func(store.AtomID) bool { return false }
	}
	return &queues{
		byAtom:   make(map[store.AtomID]*atomQueue),
		resident: resident,
		cost:     cost,
		epoch:    1,
	}
}

// setResidencyVersion installs the residency version source, after which
// memos survive across calls until the version moves.
func (q *queues) setResidencyVersion(fn func() uint64) {
	q.resVersion = fn
	q.haveRes = false
	q.epoch++
}

// add queues sq on its atom and returns the atom's queue.
func (q *queues) add(sq *query.SubQuery, now time.Duration) *atomQueue {
	q.syncResidency()
	aq, ok := q.byAtom[sq.Atom]
	if !ok {
		aq = q.newAtomQueue(sq.Atom)
		aq.oldest = now
		q.byAtom[sq.Atom] = aq
		q.bucketFor(sq.Atom.Step, true).insertAtom(aq)
		aq.subs = append(aq.subs, sq)
		aq.positions += len(sq.Index)
		q.subs++
		return aq
	}
	old := aq.subs
	if aq.subs = append(old, sq); cap(aq.subs) != cap(old) {
		clear(old) // a regrown list's old run stays in its chunk: it must pin no sub-query
	}
	aq.positions += len(sq.Index)
	aq.utSeen = 0 // positions changed: the memoized ut is stale
	q.subs++
	if b := q.bucketFor(sq.Atom.Step, false); b != nil {
		b.stale()
	}
	return aq
}

// take removes the queue of atom id, returning it as a Batch. The
// Batch's SubQueries slice is recycled at the start of the next
// NextBatch call (see beginDecision).
func (q *queues) take(id store.AtomID) Batch {
	aq := q.byAtom[id]
	delete(q.byAtom, id)
	b := q.bucketFor(id.Step, false)
	b.removeAtom(aq)
	if len(b.atoms) == 0 {
		q.dropBucket(b)
	}
	q.subs -= len(aq.subs)
	q.released = append(q.released, aq)
	return Batch{Atom: aq.id, SubQueries: aq.subs}
}

// ut computes the workload throughput metric of Eq. 1:
//
//	U_t(i) = ΣW / (T_b·φ(i) + T_m·ΣW)
//
// in positions per second, where φ(i) is 0 if the atom is resident in the
// cache and 1 otherwise. The value is memoized per residency epoch;
// recomputation reproduces the identical float (same expression, same
// inputs), which the oracle certifies.
//
// Each product is wrapped in float64(...) so it rounds on its own: the Go
// spec lets arm64, ppc64le and riscv64 fuse x*y + z into one multiply-add,
// which would round differently from amd64 (make check-fma). The same
// holds for ue, ewma and every other x*y + z of the scheduler and oracle.
func (q *queues) ut(aq *atomQueue) float64 {
	if aq.utSeen == q.epoch {
		return aq.ut
	}
	q.utRecomputes++
	w := float64(aq.positions)
	phi := 1.0
	if q.resident(aq.id) {
		phi = 0
	}
	denom := float64(q.cost.Tb.Seconds()*phi) + float64(q.cost.Tm.Seconds()*w)
	v := 0.0
	if denom > 0 {
		v = w / denom
	}
	aq.ut = v
	aq.utSeen = q.epoch
	return v
}

// ue computes the aged workload throughput metric of Eq. 2:
//
//	U_e(i) = U_t(i)·(1−α) + E(i)·α
//
// where E(i) is the queuing time of the oldest sub-query, in milliseconds
// (the paper's unit).
func (q *queues) ue(aq *atomQueue, alpha float64, now time.Duration) float64 {
	ageMs := float64(now-aq.oldest) / float64(time.Millisecond)
	return float64(q.ut(aq)*(1-alpha)) + float64(ageMs*alpha)
}

// stepUtSum returns Σ U_t over the bucket's atoms, accumulated in Morton
// order, memoized per epoch. At α = 0 this is also Σ U_e bitwise:
// ut·(1−0) ≡ ut and ageMs·0 ≡ +0.0 for the non-negative finite ages the
// virtual clock produces, and x + 0.0 ≡ x for the non-negative ut.
func (q *queues) stepUtSum(b *stepBucket) float64 {
	if b.sumSeen == q.epoch {
		return b.utSum
	}
	q.stepSumRecomputes++
	sum := 0.0
	for _, aq := range b.atoms {
		sum += q.ut(aq)
	}
	b.utSum = sum
	b.sumSeen = q.epoch
	return sum
}

// stepUeSum returns Σ U_e over the bucket's atoms. The α = 0 case reuses
// the memoized Σ U_t (bitwise-identical, see stepUtSum); otherwise the age
// terms are time-dependent and the sum is rebuilt each call — in the same
// Morton order as the reference model.
func (q *queues) stepUeSum(b *stepBucket, alpha float64, now time.Duration) float64 {
	if alpha == 0 {
		return q.stepUtSum(b)
	}
	sum := 0.0
	for _, aq := range b.atoms {
		sum += q.ue(aq, alpha, now)
	}
	return sum
}

// stepMeanUt returns the mean un-aged metric over the pending atoms.
func (q *queues) stepMeanUt(step int) float64 {
	b := q.bucketFor(step, false)
	if b == nil || len(b.atoms) == 0 {
		return 0
	}
	return q.stepUtSum(b) / float64(len(b.atoms))
}
