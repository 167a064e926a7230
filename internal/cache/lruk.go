package cache

import (
	"jaws/internal/store"
)

// LRUK implements the LRU-K page replacement of O'Neil, O'Neil & Weikum
// (SIGMOD '93), the algorithm behind SQL Server's page replacement that
// Table I uses as the workload-oblivious baseline.
//
// Each atom keeps the times of its last K references. The victim is the
// resident atom with the maximum backward K-distance — i.e. the oldest
// K-th most recent reference — with atoms that have fewer than K
// references treated as infinitely distant. Two refinements from the
// original paper are essential in practice and implemented here:
//
//   - correlated references: touches within the correlated-reference
//     period collapse into one, so a burst from a single batch does not
//     masquerade as genuine reuse;
//   - retained history: reference history survives eviction for a
//     retention period, so an atom that cycles back soon after eviction
//     is recognized as hot instead of being treated as brand new (without
//     this the cache freezes on early two-reference atoms and thrashes
//     every newcomer).
//
// The state lives on tables the policy owns (DESIGN.md §19, "Eviction
// index"): an atom with history has a slot — a record in recs and k
// places in hist, found by the atom's one-word key (store.AtomID.Key) —
// and the resident slots sit in a binary min-heap on the victim order, so
// a touch sifts one slot and Victim reads the root.
type LRUK struct {
	k          int
	correlated int64 // correlated reference period in ticks
	retain     int64 // retained-history period in ticks
	clock      int64

	slot map[uint64]int32 // every atom with history, by key → its slot
	recs []lrukRec
	hist []int64     // slot s's references at hist[s*k:][:recs[s].n], most recent first
	heap []lrukEntry // the resident slots, least (the next victim) first
	free []int32     // slots whose history aged out
}

// lrukRec is one slot: a free one has n 0, a non-resident one pos -1.
type lrukRec struct {
	key uint64 // the atom's store.AtomID.Key
	n   int32  // references held, ≤ k
	pos int32  // index in heap
}

// lrukEntry is a resident slot in the heap beside its place in the victim
// order (rank), so a comparison reads the heap alone.
type lrukEntry struct {
	rank int64
	slot int32
}

// fullHistory is set in the rank of a slot that holds all k references;
// reference times stay below it.
const fullHistory = 1 << 62

// DefaultRetain is the retained-information period (in reference ticks)
// used when NewLRUK is given retain ≤ 0.
const DefaultRetain = 4096

// NewLRUK builds an LRU-K policy. k ≤ 0 defaults to 2 (the classic
// LRU-2); correlated ≤ 0 disables correlated-reference filtering.
func NewLRUK(k int, correlated int64) *LRUK {
	if k <= 0 {
		k = 2
	}
	return &LRUK{
		k:          k,
		correlated: correlated,
		retain:     DefaultRetain,
		slot:       make(map[uint64]int32),
	}
}

// Name implements Policy.
func (p *LRUK) Name() string { return "lru-k" }

// slotOf returns key's slot, giving it an empty one — a vacated slot
// before a new one — when its atom has no history.
func (p *LRUK) slotOf(key uint64) int32 {
	if s, ok := p.slot[key]; ok {
		return s
	}
	var s int32
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		s = int32(len(p.recs))
		p.recs = append(p.recs, lrukRec{})
		p.hist = append(p.hist, make([]int64, p.k)...)
	}
	p.recs[s] = lrukRec{key: key, pos: -1}
	p.slot[key] = s
	return s
}

// touch records a reference to slot s's atom, which leaves a resident slot
// out of heap order: the caller sifts it.
func (p *LRUK) touch(s int32) {
	p.clock++
	r := &p.recs[s]
	h := p.hist[int(s)*p.k:][:p.k]
	if r.n > 0 && p.correlated > 0 && p.clock-h[0] <= p.correlated {
		// Correlated reference: update the most recent time only.
		h[0] = p.clock
		return
	}
	if int(r.n) < p.k {
		r.n++
	}
	copy(h[1:r.n], h)
	h[0] = p.clock
	if p.clock%512 == 0 {
		p.gc()
	}
}

// gc drops retained history of non-resident atoms whose last reference is
// older than the retention period, bounding memory: their slots go on the
// free list.
func (p *LRUK) gc() {
	for s := range p.recs {
		r := &p.recs[s]
		if r.n > 0 && r.pos < 0 && p.clock-p.hist[s*p.k] > p.retain {
			delete(p.slot, r.key)
			r.n = 0
			p.free = append(p.free, int32(s))
		}
	}
}

// rank places slot s in the victim order: an atom short of k references
// (infinite backward K-distance) before a full one, then the older k-th —
// for a short history, oldest known — reference.
func (p *LRUK) rank(s int32) int64 {
	n := int(p.recs[s].n)
	rank := p.hist[int(s)*p.k+n-1]
	if n == p.k {
		rank |= fullHistory
	}
	return rank
}

// less is the victim order: by rank, then by the lower key. Distinct atoms
// have distinct keys, so the order is strict and total, and the heap's root
// is the one atom a scan of the residents for the minimum would find.
func (p *LRUK) less(a, b lrukEntry) bool {
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return p.recs[a.slot].key < p.recs[b.slot].key
}

// place puts e at heap index i.
func (p *LRUK) place(i int, e lrukEntry) {
	p.heap[i] = e
	p.recs[e.slot].pos = int32(i)
}

// sift ranks the slot at heap index i anew — it is the one entry whose
// history may have changed — and restores heap order around it, moving it up
// or down as far as it must go.
func (p *LRUK) sift(i int) {
	e := p.heap[i]
	e.rank = p.rank(e.slot)
	for i > 0 {
		parent := (i - 1) / 2
		if !p.less(e, p.heap[parent]) {
			break
		}
		p.place(i, p.heap[parent])
		i = parent
	}
	for {
		c := 2*i + 1
		if c >= len(p.heap) {
			break
		}
		if c+1 < len(p.heap) && p.less(p.heap[c+1], p.heap[c]) {
			c++
		}
		if !p.less(p.heap[c], e) {
			break
		}
		p.place(i, p.heap[c])
		i = c
	}
	p.place(i, e)
}

// OnHit implements Policy.
func (p *LRUK) OnHit(id store.AtomID) {
	s := p.slotOf(id.Key())
	p.touch(s)
	if pos := p.recs[s].pos; pos >= 0 {
		p.sift(int(pos))
	}
}

// OnInsert implements Policy.
func (p *LRUK) OnInsert(id store.AtomID) {
	s := p.slotOf(id.Key())
	p.touch(s)
	pos := int(p.recs[s].pos)
	if pos < 0 {
		pos = len(p.heap)
		p.heap = append(p.heap, lrukEntry{slot: s})
	}
	p.sift(pos)
}

// Victim implements Policy: the resident atom with maximum backward
// K-distance.
func (p *LRUK) Victim() store.AtomID {
	if len(p.heap) == 0 {
		return store.AtomID{}
	}
	return store.FromKey(p.recs[p.heap[0].slot].key)
}

// OnEvict implements Policy. The reference history is retained (up to the
// retention period) so returning atoms keep their hotness.
func (p *LRUK) OnEvict(id store.AtomID) {
	s, ok := p.slot[id.Key()]
	if !ok || p.recs[s].pos < 0 {
		return
	}
	i, last := int(p.recs[s].pos), len(p.heap)-1
	p.recs[s].pos = -1
	moved := p.heap[last]
	p.heap = p.heap[:last]
	if i < last {
		p.heap[i] = moved
		p.sift(i)
	}
}

// EndRun implements Policy (no-op).
func (p *LRUK) EndRun() {}
