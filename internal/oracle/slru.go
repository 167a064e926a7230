package oracle

import (
	"sort"

	"jaws/internal/store"
)

// ModelCacheStats mirrors the accounting of cache.Stats that the model
// certifies (policy timing is an implementation concern, not semantics).
type ModelCacheStats struct {
	Hits, Misses, Evictions, Corruptions int64
}

// ModelSLRU is the reference model of the externally managed atom cache
// running the Segmented LRU policy (§V.B), restated with plain slices:
// index 0 of each segment is the MRU end. Methods return what happened —
// hit/miss, the atoms evicted — instead of firing observer hooks, so a
// differential test can compare outcomes directly.
type ModelSLRU struct {
	capacity int
	protCap  int
	prob     []store.AtomID // prob[0] = MRU
	prot     []store.AtomID
	counts   map[store.AtomID]int
	resident map[store.AtomID]bool
	stats    ModelCacheStats
}

// NewModelSLRU builds the model for a cache of capacity atoms with
// protectedFrac (clamped to [0,0.5]) reserved for the protected segment.
func NewModelSLRU(capacity int, protectedFrac float64) *ModelSLRU {
	if protectedFrac < 0 {
		protectedFrac = 0
	}
	if protectedFrac > 0.5 {
		protectedFrac = 0.5
	}
	return &ModelSLRU{
		capacity: capacity,
		protCap:  int(float64(capacity) * protectedFrac),
		counts:   make(map[store.AtomID]int),
		resident: make(map[store.AtomID]bool),
	}
}

// Get reports whether id was served from the cache.
func (m *ModelSLRU) Get(id store.AtomID) bool {
	if !m.resident[id] {
		m.stats.Misses++
		return false
	}
	m.stats.Hits++
	m.counts[id]++
	m.moveToFront(id)
	return true
}

// Corrupt drops a resident id found damaged, as cache.Cache.Corrupt does,
// and reports whether it was resident.
func (m *ModelSLRU) Corrupt(id store.AtomID) bool {
	if !m.resident[id] {
		return false
	}
	m.remove(id)
	m.stats.Corruptions++
	return true
}

// Contains reports residency without touching recency or stats.
func (m *ModelSLRU) Contains(id store.AtomID) bool { return m.resident[id] }

// Put inserts id, returning the victims evicted to make room (in eviction
// order). Re-inserting a resident atom only refreshes its recency.
func (m *ModelSLRU) Put(id store.AtomID) []store.AtomID {
	if m.resident[id] {
		m.counts[id]++
		m.moveToFront(id)
		return nil
	}
	var evicted []store.AtomID
	for len(m.prob)+len(m.prot) >= m.capacity {
		victim := m.victim()
		m.remove(victim)
		m.stats.Evictions++
		evicted = append(evicted, victim)
	}
	m.resident[id] = true
	m.counts[id]++
	m.prob = append([]store.AtomID{id}, m.prob...)
	return evicted
}

// victim is the probationary LRU tail, falling back to the protected tail
// when the probationary segment is empty.
func (m *ModelSLRU) victim() store.AtomID {
	if n := len(m.prob); n > 0 {
		return m.prob[n-1]
	}
	return m.prot[len(m.prot)-1]
}

// EndRun promotes the run's most accessed resident atoms into the
// protected segment: rank by (count desc, key asc), keep the top protCap,
// demote protected losers to the probationary MRU end (in protected MRU
// order), promote winners in rank order, reset counts.
func (m *ModelSLRU) EndRun() {
	defer func() { m.counts = make(map[store.AtomID]int) }()
	if m.protCap == 0 {
		return
	}
	var ranked []store.AtomID
	for id := range m.counts {
		if m.resident[id] {
			ranked = append(ranked, id)
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if m.counts[ranked[i]] != m.counts[ranked[j]] {
			return m.counts[ranked[i]] > m.counts[ranked[j]]
		}
		return ranked[i].Key() < ranked[j].Key()
	})
	if len(ranked) > m.protCap {
		ranked = ranked[:m.protCap]
	}
	keep := make(map[store.AtomID]bool, len(ranked))
	for _, id := range ranked {
		keep[id] = true
	}
	var stay []store.AtomID
	for _, id := range m.prot { // MRU → LRU, as the production list walk
		if keep[id] {
			stay = append(stay, id)
		} else {
			m.prob = append([]store.AtomID{id}, m.prob...)
		}
	}
	m.prot = stay
	for _, id := range ranked {
		if m.inProt(id) {
			continue
		}
		m.dropFromProb(id)
		m.prot = append([]store.AtomID{id}, m.prot...)
	}
}

// Flush evicts everything, returning the victims sorted by key (the
// production flush iterates a map, so only the set is specified).
func (m *ModelSLRU) Flush() []store.AtomID {
	out := make([]store.AtomID, 0, len(m.resident))
	for id := range m.resident {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	for _, id := range out {
		m.remove(id)
		m.stats.Evictions++
	}
	return out
}

// Len reports the number of resident atoms.
func (m *ModelSLRU) Len() int { return len(m.prob) + len(m.prot) }

// ProtectedLen reports the protected-segment size.
func (m *ModelSLRU) ProtectedLen() int { return len(m.prot) }

// Resident returns the resident atom set sorted by key.
func (m *ModelSLRU) Resident() []store.AtomID {
	out := make([]store.AtomID, 0, len(m.resident))
	for id := range m.resident {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// Stats returns a copy of the counters.
func (m *ModelSLRU) Stats() ModelCacheStats { return m.stats }

func (m *ModelSLRU) inProt(id store.AtomID) bool {
	for _, p := range m.prot {
		if p == id {
			return true
		}
	}
	return false
}

func (m *ModelSLRU) dropFromProb(id store.AtomID) {
	for i, p := range m.prob {
		if p == id {
			m.prob = append(m.prob[:i], m.prob[i+1:]...)
			return
		}
	}
}

func (m *ModelSLRU) moveToFront(id store.AtomID) {
	if m.inProt(id) {
		for i, p := range m.prot {
			if p == id {
				m.prot = append(m.prot[:i], m.prot[i+1:]...)
				break
			}
		}
		m.prot = append([]store.AtomID{id}, m.prot...)
		return
	}
	m.dropFromProb(id)
	m.prob = append([]store.AtomID{id}, m.prob...)
}

func (m *ModelSLRU) remove(id store.AtomID) {
	delete(m.resident, id)
	delete(m.counts, id)
	if m.inProt(id) {
		for i, p := range m.prot {
			if p == id {
				m.prot = append(m.prot[:i], m.prot[i+1:]...)
				return
			}
		}
	}
	m.dropFromProb(id)
}
