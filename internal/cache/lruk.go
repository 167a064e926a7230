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
type LRUK struct {
	k          int
	correlated int64 // correlated reference period in ticks
	retain     int64 // retained-history period in ticks
	clock      int64
	hist       map[store.AtomID][]int64 // most recent first, len ≤ k
	resident   map[store.AtomID]bool
}

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
		hist:       make(map[store.AtomID][]int64),
		resident:   make(map[store.AtomID]bool),
	}
}

// Name implements Policy.
func (p *LRUK) Name() string { return "lru-k" }

func (p *LRUK) touch(id store.AtomID) {
	p.clock++
	h := p.hist[id]
	if len(h) > 0 && p.correlated > 0 && p.clock-h[0] <= p.correlated {
		// Correlated reference: update the most recent time only.
		h[0] = p.clock
		return
	}
	// Shift the history down one place inside the atom's own array, which
	// is allocated once, with room for all k references.
	if h == nil {
		h = make([]int64, 0, p.k)
	}
	if len(h) < p.k {
		h = h[:len(h)+1]
		p.hist[id] = h
	}
	copy(h[1:], h)
	h[0] = p.clock
	if p.clock%512 == 0 {
		p.gc()
	}
}

// gc drops retained history of non-resident atoms whose last reference is
// older than the retention period, bounding memory.
func (p *LRUK) gc() {
	for id, h := range p.hist {
		if !p.resident[id] && p.clock-h[0] > p.retain {
			delete(p.hist, id)
		}
	}
}

// OnHit implements Policy.
func (p *LRUK) OnHit(id store.AtomID) { p.touch(id) }

// OnInsert implements Policy.
func (p *LRUK) OnInsert(id store.AtomID) {
	p.resident[id] = true
	p.touch(id)
}

// Victim implements Policy: the resident atom with maximum backward
// K-distance.
func (p *LRUK) Victim() store.AtomID {
	var victim store.AtomID
	victimKth := int64(1<<62 - 1)
	victimShort := false // victim has < k references
	first := true
	for id := range p.resident {
		h := p.hist[id]
		short := len(h) < p.k
		var kth int64
		if short {
			kth = h[len(h)-1] // oldest known reference
		} else {
			kth = h[p.k-1]
		}
		better := false
		switch {
		case first:
			better = true
		case short && !victimShort:
			better = true // infinite distance beats finite
		case short == victimShort && kth < victimKth:
			better = true
		case short == victimShort && kth == victimKth && id.Key() < victim.Key():
			better = true // deterministic tie-break for reproducible runs
		}
		if better {
			victim, victimKth, victimShort, first = id, kth, short, false
		}
	}
	return victim
}

// OnEvict implements Policy. The reference history is retained (up to the
// retention period) so returning atoms keep their hotness.
func (p *LRUK) OnEvict(id store.AtomID) { delete(p.resident, id) }

// EndRun implements Policy (no-op).
func (p *LRUK) EndRun() {}
