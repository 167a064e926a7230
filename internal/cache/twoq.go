package cache

import (
	"container/list"
	"fmt"

	"jaws/internal/store"
)

// TwoQ implements the 2Q replacement algorithm of Johnson & Shasha
// (VLDB '94), one of the two prior designs the paper's SLRU draws on
// (§V.B cites it alongside segmented caching). New atoms enter a FIFO
// probation queue (A1in); atoms evicted from probation leave a ghost
// entry (A1out, addresses only); an atom re-referenced while its ghost is
// alive is recognized as genuinely hot and promoted into the main LRU
// (Am). One-shot scans therefore flow through A1in without ever touching
// the hot set.
type TwoQ struct {
	kin  int // capacity share of A1in
	kout int // ghost entries retained

	a1in  *list.List // FIFO of resident probation atoms (front = newest)
	am    *list.List // LRU of resident hot atoms (front = MRU)
	where map[store.AtomID]*list.Element
	inAm  map[store.AtomID]bool

	ghost     *list.List // FIFO of evicted-from-probation atom IDs
	ghostByID map[store.AtomID]*list.Element
}

// NewTwoQ builds a 2Q policy for a cache of the given capacity. The
// classic tunings are used: A1in sized at 25 % of capacity and A1out
// remembering 50 % of capacity worth of ghosts.
func NewTwoQ(capacity int) *TwoQ {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: 2Q capacity must be positive, got %d", capacity))
	}
	kin := capacity / 4
	if kin < 1 {
		kin = 1
	}
	kout := capacity / 2
	if kout < 1 {
		kout = 1
	}
	return &TwoQ{
		kin:       kin,
		kout:      kout,
		a1in:      list.New(),
		am:        list.New(),
		where:     make(map[store.AtomID]*list.Element),
		inAm:      make(map[store.AtomID]bool),
		ghost:     list.New(),
		ghostByID: make(map[store.AtomID]*list.Element),
	}
}

// Name implements Policy.
func (p *TwoQ) Name() string { return "2q" }

// OnHit implements Policy: hits in Am refresh recency; hits in A1in do
// nothing (2Q deliberately ignores correlated re-references during
// probation).
func (p *TwoQ) OnHit(id store.AtomID) {
	if p.inAm[id] {
		p.am.MoveToFront(p.where[id])
	}
}

// OnInsert implements Policy: an atom whose ghost is still remembered is
// promoted straight to the hot LRU; everything else starts probation.
func (p *TwoQ) OnInsert(id store.AtomID) {
	if e, ok := p.ghostByID[id]; ok {
		p.ghost.Remove(e)
		delete(p.ghostByID, id)
		p.where[id] = p.am.PushFront(id)
		p.inAm[id] = true
		return
	}
	p.where[id] = p.a1in.PushFront(id)
}

// Victim implements Policy: drain an over-full probation queue first,
// else the hot LRU tail; fall back to whichever queue has content.
func (p *TwoQ) Victim() store.AtomID {
	if p.a1in.Len() > p.kin || p.am.Len() == 0 {
		if e := p.a1in.Back(); e != nil {
			return e.Value.(store.AtomID)
		}
	}
	return p.am.Back().Value.(store.AtomID)
}

// OnEvict implements Policy: probation evictions leave a ghost.
func (p *TwoQ) OnEvict(id store.AtomID) {
	e, ok := p.where[id]
	if !ok {
		return
	}
	if p.inAm[id] {
		p.am.Remove(e)
		delete(p.inAm, id)
	} else {
		p.a1in.Remove(e)
		p.ghostByID[id] = p.ghost.PushFront(id)
		for p.ghost.Len() > p.kout {
			old := p.ghost.Back()
			p.ghost.Remove(old)
			delete(p.ghostByID, old.Value.(store.AtomID))
		}
	}
	delete(p.where, id)
}

// EndRun implements Policy (no-op; 2Q adapts continuously).
func (p *TwoQ) EndRun() {}
