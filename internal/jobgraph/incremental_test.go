package jobgraph

import (
	"math/rand"
	"testing"

	"jaws/internal/morton"
	"jaws/internal/store"
)

// randomRegionJobs draws nJobs jobs of 1..maxLen queries, each query
// labelled with one of maxRegion regions (two queries share data iff
// their labels match, the Fig. 2 convention).
func randomRegionJobs(rng *rand.Rand, nJobs, maxLen, maxRegion int) map[int64][]int {
	jobs := make(map[int64][]int, nJobs)
	for j := 0; j < nJobs; j++ {
		n := rng.Intn(maxLen) + 1
		regions := make([]int, n)
		for i := range regions {
			regions[i] = rng.Intn(maxRegion)
		}
		jobs[int64(j+1)] = regions
	}
	return jobs
}

// regionAtoms maps a region-label job description to per-query atom
// lists: one atom per label, so lists intersect iff labels match.
func regionAtoms(regions []int) [][]store.AtomID {
	atoms := make([][]store.AtomID, len(regions))
	for s, r := range regions {
		atoms[s] = []store.AtomID{{Step: 0, Code: morton.Code(r)}}
	}
	return atoms
}

// The incremental worklist propagation must leave the graph at the same
// fixpoint the naive full-graph sweep reaches: after every public
// operation, re-running the reference propagateAll must change nothing.
func TestIncrementalPromoteReachesFixpoint(t *testing.T) {
	snapshot := func(g *Graph) map[Ref]State {
		m := make(map[Ref]State)
		for _, slot := range g.order {
			j := &g.jobs[slot]
			for s, v := range j.q {
				m[Ref{Job: j.id, Seq: s}] = v.state
			}
		}
		return m
	}
	assertFixpoint := func(t *testing.T, g *Graph, seed int64, stage string) {
		t.Helper()
		before := snapshot(g)
		g.propagateAll()
		for q, st := range snapshot(g) {
			if before[q] != st {
				t.Fatalf("seed %d %s: incremental propagation missed %v (%v, fixpoint says %v)",
					seed, stage, q, before[q], st)
			}
		}
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
		jobs := randomRegionJobs(rng, rng.Intn(6)+2, 8, 4)
		g := New(nil)
		// Interleave registrations with completions so promotion happens
		// both from registration merges and from MarkDone releases.
		pendingIDs := make([]int64, 0, len(jobs))
		for id := int64(1); int(id) <= len(jobs); id++ {
			pendingIDs = append(pendingIDs, id)
		}
		total := 0
		for _, regions := range jobs {
			total += len(regions)
		}
		doneCount := 0
		for doneCount < total {
			if len(pendingIDs) > 0 && (rng.Intn(2) == 0 || len(g.Schedulable()) == 0) {
				id := pendingIDs[0]
				pendingIDs = pendingIDs[1:]
				if err := g.AddJobWithAtoms(id, regionAtoms(jobs[id])); err != nil {
					t.Fatal(err)
				}
				assertFixpoint(t, g, seed, "AddJobWithAtoms")
				continue
			}
			sched := g.Schedulable()
			if len(sched) == 0 {
				t.Fatalf("seed %d: deadlock with %d/%d done", seed, doneCount, total)
			}
			q := sched[rng.Intn(len(sched))]
			g.MarkDone(q)
			doneCount++
			assertFixpoint(t, g, seed, "MarkDone")
			if rng.Intn(8) == 0 {
				g.Prune()
				assertFixpoint(t, g, seed, "Prune")
			}
		}
	}
}
