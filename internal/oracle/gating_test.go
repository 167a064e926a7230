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
				if err := p.Register(int64(j+1), l); err != nil {
					t.Fatal(err)
				}
			}
			for _, d := range CheckDeadlockFree(p.G, p.M) {
				t.Error(d)
			}
		})
	}
}
