package cluster

import (
	"math/rand"
	"testing"

	"jaws/internal/field"
	"jaws/internal/geom"
	"jaws/internal/job"
	"jaws/internal/morton"
	"jaws/internal/query"
	"jaws/internal/store"
)

// TestPartitionerMapsEveryAtomToExactlyOneNode is the partitioning
// property both strategies must satisfy for the cluster to be a correct
// shared-nothing split of the store: NodeOf is total, in range, stable,
// independent of the time step, and the per-node atom sets partition the
// step (disjoint cover — equivalently, 64 atoms get 64 assignments).
func TestPartitionerMapsEveryAtomToExactlyOneNode(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const atoms = 64
	for _, strat := range []Strategy{Contiguous, Striped} {
		for _, nodes := range []int{1, 2, 4, 8, 16} {
			p, err := NewPartitionerStrategy(nodes, atoms, strat)
			if err != nil {
				t.Fatal(err)
			}
			perNode := make([]int, nodes)
			for c := 0; c < atoms; c++ {
				id := store.AtomID{Step: rng.Intn(31), Code: morton.Code(c)}
				n := p.NodeOf(id)
				if n < 0 || n >= nodes {
					t.Fatalf("%v/%d nodes: atom %d mapped to node %d", strat, nodes, c, n)
				}
				// Stability: re-asking, at any step, yields the same owner.
				for trial := 0; trial < 4; trial++ {
					again := p.NodeOf(store.AtomID{Step: rng.Intn(31), Code: morton.Code(c)})
					if again != n {
						t.Fatalf("%v/%d nodes: atom %d owned by both %d and %d", strat, nodes, c, n, again)
					}
				}
				perNode[n]++
			}
			total := 0
			for _, cnt := range perNode {
				total += cnt
			}
			if total != atoms {
				t.Fatalf("%v/%d nodes: %d assignments for %d atoms", strat, nodes, total, atoms)
			}
		}
	}
}

// TestSplitJobPreservesPerNodeQueryOrder is the ordering property the
// failover and gating layers rely on: however a job's queries scatter
// over nodes, each node sees its share in the original submission order,
// renumbered into a dense per-node sequence.
func TestSplitJobPreservesPerNodeQueryOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, strat := range []Strategy{Contiguous, Striped} {
		cfg := testConfig(4)
		cfg.Strategy = strat
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		space := cfg.Node.Space
		domain := float64(space.GridSide) * space.VoxelSize()
		for trial := 0; trial < 20; trial++ {
			j := &job.Job{ID: 9, User: 1, Type: job.Batched}
			nq := 2 + rng.Intn(15)
			for i := 0; i < nq; i++ {
				q := &query.Query{
					ID: query.ID(1000 + i), JobID: 9, Seq: i, Step: rng.Intn(2),
					Kernel: field.KernelNone,
				}
				for p := 0; p < 1+rng.Intn(4); p++ {
					q.Points = append(q.Points, geom.Position{
						X: rng.Float64() * domain,
						Y: rng.Float64() * domain,
						Z: rng.Float64() * domain,
					})
				}
				j.Queries = append(j.Queries, q)
			}
			for n, nj := range c.SplitJob(j) {
				prev := query.ID(-1)
				for i, q := range nj.Queries {
					if q.Seq != i {
						t.Fatalf("%v node %d: query %d has seq %d, want dense renumbering", strat, n, q.ID, q.Seq)
					}
					// Original IDs are assigned in submission order, so
					// order preservation means strictly increasing IDs.
					if q.ID <= prev {
						t.Fatalf("%v node %d: query order not preserved (%d after %d)", strat, n, q.ID, prev)
					}
					prev = q.ID
				}
			}
		}
	}
}
