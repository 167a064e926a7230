package oracle

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"jaws/internal/cache"
	"jaws/internal/field"
	"jaws/internal/morton"
	"jaws/internal/store"
)

// TestSLRUDifferential drives a real SLRU-backed cache and the reference
// ModelSLRU through randomized Get/Put/EndRun/Flush sequences shaped like
// the engine's read path (now and then a corruption drop, then Get, then
// Put on miss), and requires identical hit/miss outcomes, victim choices,
// resident sets, and final accounting.
func TestSLRUDifferential(t *testing.T) {
	scenarios := 60
	if testing.Short() {
		scenarios = 10
	}
	for seed := int64(0); seed < int64(scenarios); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			capacity := 4 + rng.Intn(12) // 4–15 atoms
			frac := []float64{0, 0.1, 0.25, 0.5}[rng.Intn(4)]
			universe := make([]store.AtomID, capacity*5/2) // ~2.5× capacity
			for i := range universe {
				universe[i] = store.AtomID{Step: i % 3, Code: morton.Code(i * 7)}
			}

			real := cache.New(capacity, cache.NewSLRU(capacity, frac))
			model := NewModelSLRU(capacity, frac)
			// One handle for every atom: Corrupt hands it back when its atom
			// is resident, nil when not.
			handle := new(field.Atom)

			var realEvicted []store.AtomID
			real.SetObserver(cache.Observer{Evict: func(id store.AtomID) { realEvicted = append(realEvicted, id) }})

			requireSameResidents := func(op string) {
				t.Helper()
				var rk []store.AtomID
				real.EachKey(func(id store.AtomID) { rk = append(rk, id) })
				sort.Slice(rk, func(i, j int) bool { return rk[i].Key() < rk[j].Key() })
				mk := model.Resident()
				if fmt.Sprint(rk) != fmt.Sprint(mk) {
					t.Fatalf("after %s: resident sets diverge:\n real %v\nmodel %v", op, rk, mk)
				}
				if real.Len() != model.Len() {
					t.Fatalf("after %s: Len: real %d, model %d", op, real.Len(), model.Len())
				}
			}

			ops := 400
			for i := 0; i < ops; i++ {
				id := universe[rng.Intn(len(universe))]
				switch r := rng.Intn(100); {
				case r < 80: // the engine's read path: a checksum, Get, Put on miss
					if rng.Intn(13) == 0 {
						if realHad, modelHad := real.Corrupt(id) != nil, model.Corrupt(id); realHad != modelHad {
							t.Fatalf("op %d: Corrupt(%v): real resident=%v, model resident=%v", i, id, realHad, modelHad)
						}
					}
					realEvicted = realEvicted[:0]
					_, realHit := real.Get(id)
					modelHit := model.Get(id)
					if realHit != modelHit {
						t.Fatalf("op %d: Get(%v): real hit=%v, model hit=%v", i, id, realHit, modelHit)
					}
					if !realHit {
						real.Put(id, handle)
						victims := model.Put(id)
						if fmt.Sprint(realEvicted) != fmt.Sprint(victims) {
							t.Fatalf("op %d: Put(%v) victims: real %v, model %v", i, id, realEvicted, victims)
						}
					}
				case r < 90: // recency refresh of a possibly-resident atom
					realEvicted = realEvicted[:0]
					real.Put(id, handle)
					victims := model.Put(id)
					if fmt.Sprint(realEvicted) != fmt.Sprint(victims) {
						t.Fatalf("op %d: refresh Put(%v) victims: real %v, model %v", i, id, realEvicted, victims)
					}
				case r < 97: // end-of-run promotion
					real.EndRun()
					model.EndRun()
				default: // NoShare-style flush
					realEvicted = realEvicted[:0]
					real.Flush(nil)
					victims := model.Flush()
					sort.Slice(realEvicted, func(a, b int) bool { return realEvicted[a].Key() < realEvicted[b].Key() })
					if fmt.Sprint(realEvicted) != fmt.Sprint(victims) {
						t.Fatalf("op %d: Flush victims: real %v, model %v", i, realEvicted, victims)
					}
				}
				requireSameResidents(fmt.Sprintf("op %d", i))
			}

			rs, ms := real.Stats(), model.Stats()
			if rs.Hits != ms.Hits || rs.Misses != ms.Misses || rs.Evictions != ms.Evictions || rs.Corruptions != ms.Corruptions {
				t.Fatalf("final stats diverge:\n real hits=%d misses=%d evictions=%d corruptions=%d\nmodel hits=%d misses=%d evictions=%d corruptions=%d",
					rs.Hits, rs.Misses, rs.Evictions, rs.Corruptions, ms.Hits, ms.Misses, ms.Evictions, ms.Corruptions)
			}
		})
	}
}

// TestModelSLRUPromotion pins the §V.B end-of-run semantics on a hand-run
// scenario: the most-accessed atoms land in the protected segment, ties
// break to the lower key, and demoted atoms re-enter the probationary
// segment at the MRU end.
func TestModelSLRUPromotion(t *testing.T) {
	id := func(c int) store.AtomID { return store.AtomID{Code: morton.Code(c)} }
	m := NewModelSLRU(4, 0.5) // protCap = 2
	for _, c := range []int{1, 2, 3, 4} {
		m.Put(id(c))
	}
	// Access counts: atom 2 ×3, atom 3 ×2, others ×1 (from Put).
	m.Get(id(2))
	m.Get(id(2))
	m.Get(id(3))
	m.EndRun()
	if got := m.ProtectedLen(); got != 2 {
		t.Fatalf("protected segment holds %d atoms, want 2", got)
	}
	for _, c := range []int{2, 3} {
		if !m.inProt(id(c)) {
			t.Errorf("atom %d not promoted", c)
		}
	}
	// A second run with no accesses: counts were reset, so ranking is empty
	// and the protected set drains losers on the next promotion.
	m.EndRun()
	if got := m.ProtectedLen(); got != 0 {
		t.Errorf("stale counts survived the run boundary: protected len %d, want 0", got)
	}
	if m.Len() != 4 {
		t.Errorf("demotion lost atoms: len %d, want 4", m.Len())
	}
}
