package sched

import (
	"sort"

	"jaws/internal/store"
)

// This file holds the incremental index structures behind the queues
// type: per-step Morton-sorted buckets with memoized utility aggregates,
// and the freelists that keep the decision path allocation-free. Every
// argmax over them is a key-ascending scan with strict >, the iteration
// the reference model performs; the memos make that scan cheap.
//
// Invariants (each checked by the differential oracle, which replays
// every decision through a naive rescan model):
//
//   - buckets is sorted by step ascending and steps[i] == buckets[i].step;
//     iterating buckets then each bucket's atoms (key-ascending) visits
//     atoms in exactly the global clustered-index key order the reference
//     model iterates in, so floating-point accumulation order is
//     identical.
//   - A memoized value stamped with seen == epoch equals the value a
//     fresh recomputation would produce: the epoch advances whenever the
//     residency may have changed (see syncResidency), and per-atom/
//     per-bucket stamps are zeroed whenever positions or membership
//     change, so a valid stamp implies every input of the memo is
//     unchanged.

// stepBucket is the per-time-step index: the step's pending atom queues
// in Morton (clustered-key) order plus the memoized Σ U_t aggregate.
type stepBucket struct {
	step  int
	atoms []*atomQueue // key-ascending
	// utSum is Σ ut over atoms, valid iff sumSeen == queues.epoch;
	// scoreSum is JAWS's gated Σ score at α = 0, valid iff scoreSeen ==
	// queues.epoch (see JAWS.bucketScoreSum).
	utSum, scoreSum    float64
	sumSeen, scoreSeen uint64
}

// stale drops the bucket's memos: its atoms or their workloads changed.
func (b *stepBucket) stale() { b.sumSeen, b.scoreSeen = 0, 0 }

// insertAtom places aq into the bucket's key-sorted slice.
func (b *stepBucket) insertAtom(aq *atomQueue) {
	key := aq.id.Key()
	i := sort.Search(len(b.atoms), func(i int) bool { return b.atoms[i].id.Key() >= key })
	b.atoms = append(b.atoms, nil)
	copy(b.atoms[i+1:], b.atoms[i:])
	b.atoms[i] = aq
	b.stale()
}

// removeAtom deletes aq from the bucket's key-sorted slice.
func (b *stepBucket) removeAtom(aq *atomQueue) {
	key := aq.id.Key()
	i := sort.Search(len(b.atoms), func(i int) bool { return b.atoms[i].id.Key() >= key })
	copy(b.atoms[i:], b.atoms[i+1:])
	b.atoms[len(b.atoms)-1] = nil
	b.atoms = b.atoms[:len(b.atoms)-1]
	b.stale()
}

// bucketFor returns the bucket of step, creating it (in step order) when
// create is set. Returns nil when absent and create is false.
func (q *queues) bucketFor(step int, create bool) *stepBucket {
	i := sort.Search(len(q.buckets), func(i int) bool { return q.buckets[i].step >= step })
	if i < len(q.buckets) && q.buckets[i].step == step {
		return q.buckets[i]
	}
	if !create {
		return nil
	}
	var b *stepBucket
	if n := len(q.freeBuckets); n > 0 {
		b = q.freeBuckets[n-1]
		q.freeBuckets[n-1] = nil
		q.freeBuckets = q.freeBuckets[:n-1]
		b.step = step
	} else {
		b = &stepBucket{step: step}
	}
	q.buckets = append(q.buckets, nil)
	copy(q.buckets[i+1:], q.buckets[i:])
	q.buckets[i] = b
	q.steps = append(q.steps, 0)
	copy(q.steps[i+1:], q.steps[i:])
	q.steps[i] = step
	return b
}

// dropBucket removes an emptied bucket from the step index and recycles
// it.
func (q *queues) dropBucket(b *stepBucket) {
	i := sort.Search(len(q.buckets), func(i int) bool { return q.buckets[i].step >= b.step })
	copy(q.buckets[i:], q.buckets[i+1:])
	q.buckets[len(q.buckets)-1] = nil
	q.buckets = q.buckets[:len(q.buckets)-1]
	copy(q.steps[i:], q.steps[i+1:])
	q.steps = q.steps[:len(q.steps)-1]
	b.atoms = b.atoms[:0]
	b.stale()
	q.freeBuckets = append(q.freeBuckets, b)
}

// --- residency-version gating -------------------------------------------

// syncResidency advances the memo epoch when the cache may have changed
// since the last call. Every utility read follows a sync in the same
// call (add, NextBatch, AtomUtility, StepMean), so memos are exact. The
// engine installs the cache's mutation counter via SetResidencyVersion,
// after which φ-dependent memos survive across calls until the counter
// moves; without a version source every call starts a new epoch, and only
// reads within one call share a memo.
func (q *queues) syncResidency() {
	if q.resVersion != nil {
		v := q.resVersion()
		if q.haveRes && v == q.lastRes {
			return
		}
		q.haveRes, q.lastRes = true, v
	}
	q.epoch++
}

// --- freelists ----------------------------------------------------------

// atomSubs is the room a new atom queue's sub-query list starts with: most
// queues drain with fewer, and a list that starts empty grows 1 → 2 → 4 → 8
// on the way there.
const atomSubs = 8

// newAtomQueue returns a recycled atom queue for id, or a fresh one carved
// from the records' arena, its list from the lists'.
func (q *queues) newAtomQueue(id store.AtomID) *atomQueue {
	if n := len(q.freeAtoms); n > 0 {
		aq := q.freeAtoms[n-1]
		q.freeAtoms[n-1] = nil
		q.freeAtoms = q.freeAtoms[:n-1]
		aq.id = id
		return aq
	}
	aq := &q.records.Alloc(1, 1)[0]
	*aq = atomQueue{id: id, subs: q.lists.Alloc(0, atomSubs)}
	return aq
}

// beginDecision recycles the atom queues released by the previous
// decision. It runs at the top of every NextBatch, which is what bounds
// the lifetime of returned batches (see the Scheduler contract): the
// SubQueries slices handed out by the previous decision are reused from
// here on.
func (q *queues) beginDecision() {
	for i, aq := range q.released {
		for j := range aq.subs {
			aq.subs[j] = nil // drop sub-query references so completed queries can be collected
		}
		aq.subs = aq.subs[:0]
		aq.positions = 0
		aq.releasing, aq.blocked = 0, 0
		aq.oldest = 0
		aq.utSeen = 0
		q.freeAtoms = append(q.freeAtoms, aq)
		q.released[i] = nil
	}
	q.released = q.released[:0]
}
