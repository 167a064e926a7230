package cache

import (
	"jaws/internal/store"
)

// URC is the paper's Utility-Ranked Caching (§V.B): eviction order is
// coordinated with the two-level scheduler so that atoms which the
// scheduler will touch farthest in the future leave the cache first.
//
// Concretely: between time steps, atoms from the step with the lower mean
// workload throughput are evicted before atoms from a hotter step; within
// one time step, atoms are evicted in order of increasing workload
// throughput (Eq. 1). The scheduler pushes both quantities into the policy
// after every arrival and every processed batch — that push is the
// "significant maintenance overhead" Table I measures at 7 ms/query,
// against which the 16 % throughput gain is traded.
type URC struct {
	resident map[store.AtomID]int64 // value: last access tick (recency)
	atomUt   map[store.AtomID]float64
	stepMean map[int]float64
	clock    int64
}

// NewURC builds an empty URC policy.
func NewURC() *URC {
	return &URC{
		resident: make(map[store.AtomID]int64),
		atomUt:   make(map[store.AtomID]float64),
		stepMean: make(map[int]float64),
	}
}

// Name implements Policy.
func (p *URC) Name() string { return "urc" }

// OnHit implements Policy: utility ranks first, but recency breaks ties —
// in particular among atoms with no pending workload at all, where the
// scheduler offers no signal and the most stale atom should leave first.
func (p *URC) OnHit(id store.AtomID) {
	p.clock++
	p.resident[id] = p.clock
}

// OnInsert implements Policy.
func (p *URC) OnInsert(id store.AtomID) {
	p.clock++
	p.resident[id] = p.clock
}

// OnEvict implements Policy.
func (p *URC) OnEvict(id store.AtomID) {
	delete(p.resident, id)
	delete(p.atomUt, id)
}

// EndRun implements Policy (no-op; URC updates continuously).
func (p *URC) EndRun() {}

// SetAtomUtility records the workload-throughput metric U_t of a resident
// or soon-resident atom. Atoms with no pending requests should be set to
// zero (they are the farthest-future atoms and evict first).
func (p *URC) SetAtomUtility(id store.AtomID, ut float64) {
	p.atomUt[id] = ut
}

// ReplaceStepMeans swaps in the full current per-step means, dropping
// entries for steps that no longer have pending work (their atoms become
// farthest-future and evict first).
func (p *URC) ReplaceStepMeans(means map[int]float64) {
	for step := range p.stepMean {
		if _, ok := means[step]; !ok {
			delete(p.stepMean, step)
		}
	}
	for step, m := range means {
		p.stepMean[step] = m
	}
}

// Victim implements Policy: the resident atom with the lowest
// (step mean U_t, atom U_t, recency) triple.
func (p *URC) Victim() store.AtomID {
	var victim store.AtomID
	first := true
	var vStep, vAtom float64
	var vSeen int64
	for id, seen := range p.resident {
		sm := p.stepMean[id.Step]
		au := p.atomUt[id]
		better := false
		switch {
		case first:
			better = true
		case sm != vStep:
			better = sm < vStep
		case au != vAtom:
			better = au < vAtom
		case seen != vSeen:
			better = seen < vSeen // least recently used among equals
		default:
			// Deterministic tie-break so runs are reproducible.
			better = id.Key() < victim.Key()
		}
		if better {
			victim, vStep, vAtom, vSeen, first = id, sm, au, seen, false
		}
	}
	return victim
}
