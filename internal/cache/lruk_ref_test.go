package cache

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"jaws/internal/store"
)

// refLRUK is LRU-K as this package shipped it before the history moved
// into per-atom arrays updated in place: touch builds a fresh history
// slice on every uncorrelated reference (one allocation per cache hit).
// It is the reference the differential test below replays op logs
// against; everything but touch is the production code's, verbatim.
type refLRUK struct {
	k          int
	correlated int64
	retain     int64
	clock      int64
	hist       map[store.AtomID][]int64
	resident   map[store.AtomID]bool
}

func newRefLRUK(k int, correlated int64) *refLRUK {
	if k <= 0 {
		k = 2
	}
	return &refLRUK{
		k:          k,
		correlated: correlated,
		retain:     DefaultRetain,
		hist:       make(map[store.AtomID][]int64),
		resident:   make(map[store.AtomID]bool),
	}
}

func (p *refLRUK) Name() string { return "lru-k" }

func (p *refLRUK) touch(id store.AtomID) {
	p.clock++
	h := p.hist[id]
	if len(h) > 0 && p.correlated > 0 && p.clock-h[0] <= p.correlated {
		h[0] = p.clock
		return
	}
	h = append([]int64{p.clock}, h...)
	if len(h) > p.k {
		h = h[:p.k]
	}
	p.hist[id] = h
	if p.clock%512 == 0 {
		p.gc()
	}
}

func (p *refLRUK) gc() {
	for id, h := range p.hist {
		if !p.resident[id] && p.clock-h[0] > p.retain {
			delete(p.hist, id)
		}
	}
}

func (p *refLRUK) OnHit(id store.AtomID) { p.touch(id) }

func (p *refLRUK) OnInsert(id store.AtomID) {
	p.resident[id] = true
	p.touch(id)
}

func (p *refLRUK) Victim() store.AtomID {
	var victim store.AtomID
	victimKth := int64(1<<62 - 1)
	victimShort := false
	first := true
	for id := range p.resident {
		h := p.hist[id]
		short := len(h) < p.k
		var kth int64
		if short {
			kth = h[len(h)-1]
		} else {
			kth = h[p.k-1]
		}
		better := false
		switch {
		case first:
			better = true
		case short && !victimShort:
			better = true
		case short == victimShort && kth < victimKth:
			better = true
		case short == victimShort && kth == victimKth && id.Key() < victim.Key():
			better = true
		}
		if better {
			victim, victimKth, victimShort, first = id, kth, short, false
		}
	}
	return victim
}

func (p *refLRUK) OnEvict(id store.AtomID) { delete(p.resident, id) }
func (p *refLRUK) EndRun()                 {}

// Random op logs — lookups, inserts of new and of resident atoms, flushes,
// over a key space a few times the capacity and long enough for the
// retained-history sweep to run — must evict the same atoms in the same
// order under both policies, and leave the same history behind, for k of
// 1, 2 and 3, with and without the correlated-reference window.
func TestLRUKMatchesReferenceOnRandomOpLogs(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		for _, correlated := range []int64{0, 3} {
			for seed := int64(1); seed <= 5; seed++ {
				t.Run(fmt.Sprintf("k=%d/correlated=%d/seed=%d", k, correlated, seed), func(t *testing.T) {
					got, want := NewLRUK(k, correlated), newRefLRUK(k, correlated)
					var gotEvicted, wantEvicted []store.AtomID
					cg, cw := New(8, got), New(8, want)
					cg.SetObserver(Observer{Evict: func(id store.AtomID) { gotEvicted = append(gotEvicted, id) }})
					cw.SetObserver(Observer{Evict: func(id store.AtomID) { wantEvicted = append(wantEvicted, id) }})
					rng := rand.New(rand.NewSource(seed))
					for op := 0; op < 6000; op++ {
						// A skewed key space: a hot set that accumulates full
						// histories, a cold tail that comes back after eviction.
						a := id(rng.Intn(2), rng.Intn(8))
						if rng.Intn(3) == 0 {
							a = id(rng.Intn(3), rng.Intn(40))
						}
						switch r := rng.Intn(100); {
						case r < 55:
							_, okg := cg.Get(a)
							_, okw := cw.Get(a)
							if okg != okw {
								t.Fatalf("op %d: Get(%v) hit=%v, reference hit=%v", op, a, okg, okw)
							}
							if !okg {
								cg.Put(a, op)
								cw.Put(a, op)
							}
						case r < 99:
							cg.Put(a, op)
							cw.Put(a, op)
						default:
							// Flush evicts in map order: only the set is comparable.
							cg.Flush(nil)
							cw.Flush(nil)
							byKey := func(a, b store.AtomID) int { return cmp.Compare(a.Key(), b.Key()) }
							slices.SortFunc(gotEvicted, byKey)
							slices.SortFunc(wantEvicted, byKey)
						}
						if !slices.Equal(gotEvicted, wantEvicted) {
							t.Fatalf("op %d: evicted %v, reference %v", op, gotEvicted, wantEvicted)
						}
						gotEvicted, wantEvicted = gotEvicted[:0], wantEvicted[:0]
					}
					if len(got.hist) != len(want.hist) {
						t.Fatalf("history of %d atoms, reference %d", len(got.hist), len(want.hist))
					}
					for a, h := range want.hist {
						if !slices.Equal(got.hist[a], h) {
							t.Fatalf("history of %v is %v, reference %v", a, got.hist[a], h)
						}
					}
				})
			}
		}
	}
}

func TestLRUKHitDoesNotAllocate(t *testing.T) {
	for _, correlated := range []int64{0, 3} {
		c := New(16, NewLRUK(2, correlated))
		for i := 0; i < 16; i++ {
			c.Put(id(0, i), i)
			c.Get(id(0, i)) // the second reference: the history is at full length
		}
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			c.Get(id(0, i%16))
			i++
		})
		if allocs != 0 {
			t.Errorf("correlated=%d: Cache.Get hit allocates %v times, want 0", correlated, allocs)
		}
	}
}
