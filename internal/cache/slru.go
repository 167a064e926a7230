package cache

import (
	"container/list"
	"fmt"
	"sort"

	"jaws/internal/store"
)

// SLRU is the paper's Segmented LRU (§V.B): the cache is divided into a
// probationary segment and a small protected segment (5–10 % of capacity).
// Both segments are recency-ordered. At the end of each workload run the
// most frequently accessed atoms are promoted into the protected segment;
// atoms squeezed out of the protected segment re-enter the probationary
// segment at its MRU end. Victims always come from the probationary
// segment, so regions of interest that are queried repeatedly (e.g.
// turbulent structures where inertial particles cluster) survive scans
// that sweep an entire time step once.
type SLRU struct {
	protCap int
	prob    *list.List // front = MRU
	prot    *list.List
	where   map[store.AtomID]*list.Element
	inProt  map[store.AtomID]bool
	counts  map[store.AtomID]int // accesses in the current run
}

// NewSLRU builds an SLRU policy for a cache of the given total capacity,
// reserving protectedFrac of it (clamped to [0,0.5]) for the protected
// segment. The paper allocates 5 %.
func NewSLRU(capacity int, protectedFrac float64) *SLRU {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: slru capacity must be positive, got %d", capacity))
	}
	if protectedFrac < 0 {
		protectedFrac = 0
	}
	if protectedFrac > 0.5 {
		protectedFrac = 0.5
	}
	protCap := int(float64(capacity) * protectedFrac)
	return &SLRU{
		protCap: protCap,
		prob:    list.New(),
		prot:    list.New(),
		where:   make(map[store.AtomID]*list.Element),
		inProt:  make(map[store.AtomID]bool),
		counts:  make(map[store.AtomID]int),
	}
}

// Name implements Policy.
func (p *SLRU) Name() string { return "slru" }

// OnHit implements Policy: refresh recency within the atom's segment and
// count the access for end-of-run promotion.
func (p *SLRU) OnHit(id store.AtomID) {
	p.counts[id]++
	if e, ok := p.where[id]; ok {
		if p.inProt[id] {
			p.prot.MoveToFront(e)
		} else {
			p.prob.MoveToFront(e)
		}
	}
}

// OnInsert implements Policy: new atoms enter the probationary segment.
func (p *SLRU) OnInsert(id store.AtomID) {
	p.counts[id]++
	p.where[id] = p.prob.PushFront(id)
}

// Victim implements Policy: the LRU end of the probationary segment. If
// the probationary segment is empty (protected fraction misconfigured
// large and the workload tiny), fall back to the protected LRU end.
func (p *SLRU) Victim() store.AtomID {
	if e := p.prob.Back(); e != nil {
		return e.Value.(store.AtomID)
	}
	return p.prot.Back().Value.(store.AtomID)
}

// OnEvict implements Policy.
func (p *SLRU) OnEvict(id store.AtomID) {
	e, ok := p.where[id]
	if !ok {
		return
	}
	if p.inProt[id] {
		p.prot.Remove(e)
		delete(p.inProt, id)
	} else {
		p.prob.Remove(e)
	}
	delete(p.where, id)
	delete(p.counts, id)
}

// EndRun implements Policy: promote the most frequently accessed resident
// atoms of the finished run into the protected segment, demoting as
// needed. This is the once-per-run work that keeps SLRU's overhead under
// a millisecond per query in Table I.
func (p *SLRU) EndRun() {
	if p.protCap == 0 {
		p.counts = make(map[store.AtomID]int)
		return
	}
	type kv struct {
		id store.AtomID
		n  int
	}
	ranked := make([]kv, 0, len(p.counts))
	for id, n := range p.counts {
		if _, resident := p.where[id]; resident {
			ranked = append(ranked, kv{id, n})
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].n != ranked[j].n {
			return ranked[i].n > ranked[j].n
		}
		return ranked[i].id.Key() < ranked[j].id.Key() // deterministic ties
	})
	if len(ranked) > p.protCap {
		ranked = ranked[:p.protCap]
	}
	keep := make(map[store.AtomID]bool, len(ranked))
	for _, r := range ranked {
		keep[r.id] = true
	}
	// Demote protected atoms that fell out of the top set: they re-enter
	// the probationary segment at its MRU end.
	for e := p.prot.Front(); e != nil; {
		next := e.Next()
		id := e.Value.(store.AtomID)
		if !keep[id] {
			p.prot.Remove(e)
			delete(p.inProt, id)
			p.where[id] = p.prob.PushFront(id)
		}
		e = next
	}
	// Promote the winners that are not already protected.
	for _, r := range ranked {
		if p.inProt[r.id] {
			continue
		}
		if e, ok := p.where[r.id]; ok {
			p.prob.Remove(e)
			p.where[r.id] = p.prot.PushFront(r.id)
			p.inProt[r.id] = true
		}
	}
	p.counts = make(map[store.AtomID]int)
}
