package cache

import (
	"container/list"
	"fmt"
	"testing"

	"jaws/internal/oracle/difftest"
	"jaws/internal/store"
)

// LRU is least-recently-used replacement on a linked list, as this package
// first shipped it. Nothing builds it any more: LRU-K with k = 1 and no
// correlated-reference window ranks every atom by its last reference, which
// is plain recency, and TestLRUKOneIsLRU holds NewLRUK(1, 0) to this list.
type LRU struct {
	order *list.List // front = most recent
	elems map[store.AtomID]*list.Element
}

// NewLRU creates an empty LRU policy.
func NewLRU() *LRU {
	return &LRU{order: list.New(), elems: make(map[store.AtomID]*list.Element)}
}

// Name implements Policy.
func (p *LRU) Name() string { return "lru" }

// OnHit implements Policy.
func (p *LRU) OnHit(id store.AtomID) {
	if e, ok := p.elems[id]; ok {
		p.order.MoveToFront(e)
	}
}

// OnInsert implements Policy.
func (p *LRU) OnInsert(id store.AtomID) {
	p.elems[id] = p.order.PushFront(id)
}

// Victim implements Policy.
func (p *LRU) Victim() store.AtomID {
	return p.order.Back().Value.(store.AtomID)
}

// OnEvict implements Policy.
func (p *LRU) OnEvict(id store.AtomID) {
	if e, ok := p.elems[id]; ok {
		p.order.Remove(e)
		delete(p.elems, id)
	}
}

// EndRun implements Policy (no-op for LRU).
func (p *LRU) EndRun() {}

// LRU-K(1) without a correlated window must evict what the list evicts,
// op for op, at every capacity from 1 to 8: the tests that build
// NewLRUK(1, 0) as their recency cache rely on it. The logs are replay's,
// the pair LRU-K's differential test runs on.
func TestLRUKOneIsLRU(t *testing.T) {
	for capacity := 1; capacity <= 8; capacity++ {
		ok := t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			head := []byte{byte(capacity - 1), 0, 1}
			difftest.Seeds(t, difftest.Gen{First: 1, N: 7, Head: head, Min: 6000}, func(t difftest.TB, l *difftest.Log) {
				replay(t, l)
			})
		})
		if !ok {
			return // one shrunk failure is enough
		}
	}
}
