package oracle

import (
	"fmt"
	"math/rand"
	"testing"

	"jaws/internal/morton"
	"jaws/internal/store"
)

// TestGatingDifferential drives the production gating graph and the
// reference ModelGraph over randomized job sets, all registered up front
// from dense random atom sets, and requires them to make identical
// admission decisions, expose identical schedulable frontiers and gating
// numbers, and — the Fig. 4 guarantee — drain without deadlock.
func TestGatingDifferential(t *testing.T) {
	scenarios := 150
	if testing.Short() {
		scenarios = 25
	}
	for seed := int64(0); seed < int64(scenarios); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			p, rng := NewGatingPair(t), rand.New(rand.NewSource(seed))
			jobs := 2 + rng.Intn(5)     // 2–6 ordered jobs
			universe := 4 + rng.Intn(6) // 4–9 atoms: dense sharing
			lists := make([][][]store.AtomID, jobs)
			for j := range lists {
				lists[j] = make([][]store.AtomID, 1+rng.Intn(6)) // 1–6 queries per job
				for s := range lists[j] {
					for k := 0; k < universe; k++ {
						if rng.Intn(3) == 0 {
							lists[j][s] = append(lists[j][s], store.AtomID{Code: morton.Code(k)})
						}
					}
				}
			}
			for j, l := range lists {
				register(t, p, int64(j+1), l)
			}
			for _, d := range CheckDeadlockFree(p.G, p.M) {
				t.Error(d)
			}
		})
	}
}

// randomLists draws n random atom lists over universe atoms (an atom may
// repeat within a list, and a list may be empty).
func randomLists(rng *rand.Rand, n, universe int) [][]store.AtomID {
	lists := make([][]store.AtomID, n)
	for s := range lists {
		for k := rng.Intn(4); k > 0; k-- {
			c := rng.Intn(universe)
			lists[s] = append(lists[s], store.AtomID{Step: c % 2, Code: morton.Code(c / 2)})
		}
	}
	return lists
}

// serve completes up to k schedulable queries, one at a time.
func serve(p *GatingPair, rng *rand.Rand, k int) {
	for ; k > 0; k-- {
		ready := p.M.Schedulable()
		if len(ready) == 0 {
			return
		}
		p.Serve(ready[rng.Intn(len(ready))])
	}
}

// register adds job id to p; the gating tests register only new IDs.
func register(t *testing.T, p *GatingPair, id int64, lists [][]store.AtomID) {
	t.Helper()
	if err := p.Register(id, lists); err != nil {
		t.Fatal(err)
	}
}

// TestGatingAtomsDifferential certifies the path the engine takes: jobs
// registered through AddJobWithAtoms as they arrive, completions and
// prunes between the registrations the way Engine.Run interleaves them,
// production and model diffed after every operation, and at the end the
// Fig. 4 guarantee — the graphs drain.
func TestGatingAtomsDifferential(t *testing.T) {
	scenarios := 150
	if testing.Short() {
		scenarios = 25
	}
	for seed := int64(0); seed < int64(scenarios); seed++ {
		p, rng := NewGatingPair(t), rand.New(rand.NewSource(2000+seed))
		universe := 4 + rng.Intn(8)
		jobs := 3 + rng.Intn(8)
		for id := int64(1); id <= int64(jobs); id++ {
			register(t, p, id, randomLists(rng, 1+rng.Intn(8), universe))
			serve(p, rng, rng.Intn(6))
			if rng.Intn(3) == 0 {
				p.Prune()
			}
		}
		for _, d := range CheckDeadlockFree(p.G, p.M) {
			t.Errorf("seed %d: %s", seed, d)
		}
	}
}

// TestGatingPruneDifferential interleaves serving with pruning: both
// graphs prune after the first wave of jobs has drained — wholly, or only
// in part, so that finished jobs go while components they were in survive
// through jobs still running — and late-arriving jobs must still merge
// identically against the survivors. (The partial drain is what a prune
// followed by an admission used to crash on.)
func TestGatingPruneDifferential(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		p, rng := NewGatingPair(t), rand.New(rand.NewSource(1000+seed))
		for j := int64(1); j <= 3; j++ {
			register(t, p, j, randomLists(rng, 1+rng.Intn(4), 5))
		}
		if seed%2 == 0 {
			if diffs := CheckDeadlockFree(p.G, p.M); len(diffs) > 0 {
				t.Fatalf("seed %d wave 1: %v", seed, diffs)
			}
		} else {
			serve(p, rng, 1+rng.Intn(6))
		}
		p.Prune()
		for j := int64(4); j <= 6; j++ {
			register(t, p, j, randomLists(rng, 1+rng.Intn(4), 5))
			serve(p, rng, rng.Intn(3))
			p.Prune()
		}
		if diffs := CheckDeadlockFree(p.G, p.M); len(diffs) > 0 {
			t.Fatalf("seed %d wave 2: %v", seed, diffs)
		}
	}
}
