package oracle

import (
	"slices"
	"sort"
	"testing"

	"jaws/internal/cache"
	"jaws/internal/field"
	"jaws/internal/morton"
	"jaws/internal/oracle/difftest"
	"jaws/internal/store"
)

// replay decodes l as an op log and drives a real SLRU-backed cache and the
// reference ModelSLRU through it. A header picks the capacity (4–15 atoms)
// and the protected fraction; each op is Get/Put/EndRun/Flush shaped like
// the engine's read path (now and then a corruption drop, then Get, then
// Put on miss), over about 2.5 times the capacity's atoms. Hit/miss
// outcomes, victim choices and resident sets must agree after every op,
// and the accounting at the end.
func replay(t difftest.TB, l *difftest.Log) {
	capacity := 4 + l.Intn(12)
	frac := []float64{0, 0.1, 0.25, 0.5}[l.Intn(4)]
	universe := make([]store.AtomID, capacity*5/2)
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

	for i := 0; l.More(); i++ {
		id, r := universe[l.Intn(len(universe))], l.Intn(100)
		// The engine's read path begins with a checksum, now and then a
		// corruption drop.
		if r < 80 && l.Intn(13) == 0 {
			if realHad, modelHad := real.Corrupt(id) != nil, model.Corrupt(id); realHad != modelHad {
				t.Fatalf("op %d: Corrupt(%v): real resident=%v, model resident=%v", i, id, realHad, modelHad)
			}
		}
		realEvicted = realEvicted[:0]
		var what string
		var victims []store.AtomID
		switch {
		case r < 80: // then Get, and Put on miss
			_, realHit := real.Get(id)
			if modelHit := model.Get(id); realHit != modelHit {
				t.Fatalf("op %d: Get(%v): real hit=%v, model hit=%v", i, id, realHit, modelHit)
			}
			if !realHit {
				real.Put(id, handle)
				what, victims = "Put", model.Put(id)
			}
		case r < 90: // recency refresh of a possibly-resident atom
			real.Put(id, handle)
			what, victims = "refresh Put", model.Put(id)
		case r < 97: // end-of-run promotion
			real.EndRun()
			model.EndRun()
		default: // NoShare-style flush
			real.Flush(nil)
			what, victims = "Flush", model.Flush()
			sort.Slice(realEvicted, func(a, b int) bool { return realEvicted[a].Key() < realEvicted[b].Key() })
		}
		if !slices.Equal(realEvicted, victims) {
			t.Fatalf("op %d: %s(%v) victims: real %v, model %v", i, what, id, realEvicted, victims)
		}
		var rk []store.AtomID
		real.EachKey(func(id store.AtomID) { rk = append(rk, id) })
		sort.Slice(rk, func(i, j int) bool { return rk[i].Key() < rk[j].Key() })
		if mk := model.Resident(); !slices.Equal(rk, mk) {
			t.Fatalf("after op %d: resident sets diverge:\n real %v\nmodel %v", i, rk, mk)
		}
		if real.Len() != model.Len() {
			t.Fatalf("after op %d: Len: real %d, model %d", i, real.Len(), model.Len())
		}
	}

	rs, ms := real.Stats(), model.Stats()
	if rs.Hits != ms.Hits || rs.Misses != ms.Misses || rs.Evictions != ms.Evictions || rs.Corruptions != ms.Corruptions {
		t.Fatalf("final stats diverge:\n real hits=%d misses=%d evictions=%d corruptions=%d\nmodel hits=%d misses=%d evictions=%d corruptions=%d",
			rs.Hits, rs.Misses, rs.Evictions, rs.Corruptions, ms.Hits, ms.Misses, ms.Evictions, ms.Corruptions)
	}
}

// TestSLRUDifferential replays random op logs of about 400 ops each.
func TestSLRUDifferential(t *testing.T) {
	scenarios := 60
	if testing.Short() {
		scenarios = 10
	}
	difftest.Seeds(t, difftest.Gen{N: scenarios, Min: 1000, Span: 300}, replay)
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
