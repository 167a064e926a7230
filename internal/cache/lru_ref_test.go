package cache

import (
	"cmp"
	"container/list"
	"fmt"
	"math/rand"
	"slices"
	"testing"

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

// Seeded op logs — Puts of any atom, same-ID Puts of a resident one, Gets
// and Flushes, over a key space three times the capacity — must leave the
// same atoms resident after every op under LRU-K(1) as under the list,
// at every capacity from 1 to 8: the tests that build NewLRUK(1, 0) as
// their recency cache rely on it.
func TestLRUKOneIsLRU(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		capacity := 1 + int(seed%8)
		got, want := New(capacity, NewLRUK(1, 0)), New(capacity, NewLRU())
		rng := rand.New(rand.NewSource(seed))
		var resident []store.AtomID
		for op := 0; op < 3000; op++ {
			a := id(rng.Intn(3), rng.Intn(capacity)) // 3 × capacity atoms
			var what string
			switch r := rng.Intn(100); {
			case r < 45:
				what = "Get"
				_, okg := got.Get(a)
				_, okw := want.Get(a)
				if okg != okw {
					t.Fatalf("seed %d op %d: Get(%v) hit=%v, LRU hit=%v", seed, op, a, okg, okw)
				}
			case r < 80:
				what = "Put"
				got.Put(a, nil)
				want.Put(a, nil)
			case r < 99:
				what = "same-ID Put"
				resident = resident[:0]
				want.EachKey(func(r store.AtomID) { resident = append(resident, r) })
				if len(resident) == 0 {
					continue
				}
				// EachKey goes in map order: sort, so the seed picks the atom.
				slices.SortFunc(resident, func(x, y store.AtomID) int { return cmp.Compare(x.Key(), y.Key()) })
				a = resident[rng.Intn(len(resident))]
				got.Put(a, nil)
				want.Put(a, nil)
			default:
				what = "Flush"
				got.Flush(nil)
				want.Flush(nil)
			}
			if err := sameResidents(got, want); err != nil {
				t.Fatalf("seed %d (capacity %d) op %d (%s %v): %v", seed, capacity, op, what, a, err)
			}
		}
	}
}

// sameResidents compares the resident sets of two caches.
func sameResidents(got, want *Cache) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("%d residents, LRU has %d", got.Len(), want.Len())
	}
	var missing []store.AtomID
	want.EachKey(func(a store.AtomID) {
		if !got.Contains(a) {
			missing = append(missing, a)
		}
	})
	if len(missing) > 0 {
		return fmt.Errorf("LRU-K(1) evicted %v, which LRU keeps", missing)
	}
	return nil
}
