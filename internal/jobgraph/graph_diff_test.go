package jobgraph

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"jaws/internal/morton"
	"jaws/internal/store"
)

// propagateAll is the reference propagation: sweep every query to a
// fixpoint. Kept only to cross-check the incremental promote in tests.
func (g *Graph) propagateAll() {
	for changed := true; changed; {
		changed = false
		for _, slot := range g.order {
			for s := range g.jobs[slot].q {
				if v := &g.jobs[slot].q[s]; v.state == Ready {
					g.promote(slot, int32(s))
					changed = changed || v.state == Queue
				}
			}
		}
	}
}

// checkTables verifies what the dense layout takes for granted: slots,
// components and posting chains refer to each other consistently and to
// nothing that was pruned, and a registration leaves its scratch clean.
func checkTables(g *Graph) error {
	if len(g.order) != len(g.slots) || len(g.order)+len(g.freeSlots) != len(g.jobs) {
		return fmt.Errorf("%d live + %d vacated slots, %d IDs, %d records", len(g.order), len(g.freeSlots), len(g.slots), len(g.jobs))
	}
	for _, slot := range g.freeSlots {
		if g.jobs[slot].q != nil {
			return fmt.Errorf("vacated slot %d still holds job %d", slot, g.jobs[slot].id)
		}
	}
	used := make(map[int32]bool)
	for _, slot := range g.order {
		j := &g.jobs[slot]
		if j.q == nil || g.slots[j.id] != slot {
			return fmt.Errorf("slot %d (job %d) is not what the ID index says", slot, j.id)
		}
		// Levels increase strictly along a job: the invariant admitEdge
		// stands on in place of a crossing scan.
		prev := int32(0)
		for s, v := range j.q {
			if v.comp == 0 {
				continue
			}
			c := g.comps[v.comp]
			if c.level <= prev {
				return fmt.Errorf("job %d: gating level %d at query %d after %d", j.id, c.level, s, prev)
			}
			prev = c.level
			used[v.comp] = true
			found := false
			for k, m := range c.members {
				if k > 0 && c.members[k-1].job >= m.job {
					return fmt.Errorf("component %d not in ascending job order: %v", v.comp, c.members)
				}
				if g.jobs[m.slot].id != m.job || int(m.seq) >= len(g.jobs[m.slot].q) || g.vert(m).comp != v.comp {
					return fmt.Errorf("component %d holds %v, which is not its member", v.comp, m)
				}
				found = found || (m.slot == slot && int(m.seq) == s)
			}
			if !found {
				return fmt.Errorf("q(%d,%d) is not in its component %d", j.id, s, v.comp)
			}
		}
	}
	if len(used)+len(g.freeComps)+1 != len(g.comps) {
		return fmt.Errorf("%d components in use + %d free + 1 ≠ %d records", len(used), len(g.freeComps), len(g.comps))
	}
	for _, c := range g.freeComps {
		if used[c] || g.comps[c].members != nil {
			return fmt.Errorf("free component record %d is in use or pins its members", c)
		}
	}
	nodes := 0
	walk := func(p int32, live bool) error {
		for ; p != 0; p = g.posts[p-1].next {
			if nodes++; nodes > len(g.posts) {
				return fmt.Errorf("posting chains loop")
			}
			if n := g.posts[p-1]; live && (g.jobs[n.slot].q == nil || int(n.seq) >= len(g.jobs[n.slot].q)) {
				return fmt.Errorf("posting of vacated slot %d", n.slot)
			}
		}
		return nil
	}
	for atom, head := range g.heads {
		if head == 0 {
			return fmt.Errorf("atom %v indexed with an empty chain", atom)
		}
		if err := walk(head, true); err != nil {
			return err
		}
	}
	if err := walk(g.freePost, false); err != nil {
		return err
	}
	if nodes != len(g.posts) {
		return fmt.Errorf("%d posting nodes reachable of %d", nodes, len(g.posts))
	}
	for slot, at := range g.blockAt {
		if at != 0 {
			return fmt.Errorf("share matrix of slot %d left behind", slot)
		}
	}
	return nil
}

// Graph.Prune followed by an admission used to panic: the pruned job's
// queries stayed in the components that survived through another job, and
// the next admission against one looked the pruned job up.
func TestPruneThenAdmit(t *testing.T) {
	A, B := store.AtomID{Code: 1}, store.AtomID{Code: 2}
	g := New(nil)
	for id, atoms := range [][][]store.AtomID{{{A}}, {{A}, {B}}} {
		if err := g.AddJobWithAtoms(int64(id+1), atoms); err != nil {
			t.Fatal(err)
		}
	}
	g.MarkDone(Ref{Job: 1, Seq: 0})
	g.MarkDone(Ref{Job: 2, Seq: 0})
	g.Prune()
	if len(g.order) != 1 || g.Registered(1) {
		t.Fatalf("Prune kept %d jobs (job 1 registered: %v), want job 2 alone", len(g.order), g.Registered(1))
	}
	if p := g.Partners(Ref{Job: 2, Seq: 0}); len(p) != 0 {
		t.Fatalf("the pruned job's query is still a partner: %v", p)
	}
	if err := g.AddJobWithAtoms(3, [][]store.AtomID{{A}}); err != nil {
		t.Fatal(err)
	}
	// Job 3's query joined job 2's finished one; nothing holds it back.
	if p := g.Partners(Ref{Job: 3, Seq: 0}); len(p) != 1 || p[0] != (Ref{Job: 2, Seq: 0}) {
		t.Fatalf("Partners = %v, want job 2's first query", p)
	}
	if st := g.State(Ref{Job: 3, Seq: 0}); st != Queue {
		t.Fatalf("job 3's query is %v, want QUEUE", st)
	}
	if err := checkTables(g); err != nil {
		t.Fatal(err)
	}
}

// hotspotJobs draws jobs the way the workload generator shapes them: each
// follows one of a few paths through the atoms, a step per two queries,
// starting at a small offset — so jobs on one path share long runs.
func hotspotJobs(rng *rand.Rand, n int) [][][]store.AtomID {
	jobs := make([][][]store.AtomID, n)
	for i := range jobs {
		path, off := rng.Intn(8), rng.Intn(4)
		jobs[i] = make([][]store.AtomID, 4+rng.Intn(20))
		for s := range jobs[i] {
			for k := 0; k < 6; k++ {
				jobs[i][s] = append(jobs[i][s], store.AtomID{Step: (off + s) / 2, Code: morton.Code(path*64 + (off+s)*2 + k)})
			}
		}
	}
	return jobs
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// On a warmed graph, registering one more job allocates at most the member
// array of each edge it admits, plus the slab and index growth that
// happens to fall on it.
func TestAdmissionAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	jobs := hotspotJobs(rand.New(rand.NewSource(3)), 64+32)
	g := New(nil)
	for id, atoms := range jobs[:64] {
		if err := g.AddJobWithAtoms(int64(id), atoms); err != nil {
			t.Fatal(err)
		}
	}
	edges := 0
	for id := 64; id < len(jobs); id++ {
		before, m0 := g.EdgesAdmitted(), mallocs()
		if err := g.AddJobWithAtoms(int64(id), jobs[id]); err != nil {
			t.Fatal(err)
		}
		allocs, admitted := int(mallocs()-m0), g.EdgesAdmitted()-before
		if allocs > admitted+4 {
			t.Errorf("job %d: %d allocations for %d admitted edges, want at most %d", id, allocs, admitted, admitted+4)
		}
		edges += admitted
	}
	if edges == 0 {
		t.Fatal("the measured jobs admitted no edge: nothing was pinned")
	}
}

func benchmarkAddJobs(b *testing.B, jobs [][][]store.AtomID) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := New(nil)
		for id, atoms := range jobs {
			g.AddJobWithAtoms(int64(id), atoms)
		}
	}
}

// The replay-cold population: 350 ordered jobs through the path the engine
// takes.
func BenchmarkAddJobWithAtoms350Jobs(b *testing.B) {
	benchmarkAddJobs(b, hotspotJobs(rand.New(rand.NewSource(2)), 350))
}
