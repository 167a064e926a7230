package oracle

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"jaws/internal/jobgraph"
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
			a := newAtomGraphs(t, seed)
			jobs := 2 + a.rng.Intn(5)     // 2–6 ordered jobs
			universe := 4 + a.rng.Intn(6) // 4–9 atoms: dense sharing
			lists := make([][][]store.AtomID, jobs)
			for j := range lists {
				lists[j] = make([][]store.AtomID, 1+a.rng.Intn(6)) // 1–6 queries per job
				for s := range lists[j] {
					for k := 0; k < universe; k++ {
						if a.rng.Intn(3) == 0 {
							lists[j][s] = append(lists[j][s], store.AtomID{Code: morton.Code(k)})
						}
					}
				}
			}
			for j, l := range lists {
				a.register(int64(j+1), l)
			}
			for _, d := range CheckDeadlockFree(a.g, a.m) {
				t.Error(d)
			}
		})
	}
}

// atomGraphs is a production graph fed through AddJobWithAtoms — the path
// the engine takes — beside the reference model fed the same jobs, whose
// sharing test is the intersection of the same atom lists.
type atomGraphs struct {
	t     *testing.T
	rng   *rand.Rand
	atoms map[jobgraph.Ref][]store.AtomID
	refs  []jobgraph.Ref // every query ever registered, pruned ones included
	g     *jobgraph.Graph
	m     *ModelGraph

	gotEdges, wantEdges []string
}

func newAtomGraphs(t *testing.T, seed int64) *atomGraphs {
	a := &atomGraphs{t: t, rng: rand.New(rand.NewSource(seed)), atoms: make(map[jobgraph.Ref][]store.AtomID)}
	a.g = jobgraph.New(nil)
	a.m = NewModelGraph(func(x, y jobgraph.Ref) bool {
		for _, ax := range a.atoms[x] {
			for _, ay := range a.atoms[y] {
				if ax == ay {
					return true
				}
			}
		}
		return false
	})
	a.g.SetObserver(func(ok bool, u, v jobgraph.Ref) { a.gotEdges = append(a.gotEdges, fmt.Sprint(ok, u, v)) })
	a.m.Observer = func(ok bool, u, v jobgraph.Ref) { a.wantEdges = append(a.wantEdges, fmt.Sprint(ok, u, v)) }
	return a
}

// register adds job id with the given per-query atom lists and diffs the
// two graphs.
func (a *atomGraphs) register(id int64, lists [][]store.AtomID) {
	a.t.Helper()
	for s := range lists {
		ref := jobgraph.Ref{Job: id, Seq: s}
		a.atoms[ref] = append([]store.AtomID(nil), lists[s]...)
		a.refs = append(a.refs, ref)
	}
	if err := a.g.AddJobWithAtoms(id, lists); err != nil {
		a.t.Fatalf("AddJobWithAtoms(%d): %v", id, err)
	}
	for s := range lists {
		clear(lists[s]) // the graph copied them
	}
	a.m.AddJob(id, len(lists))
	a.compare(fmt.Sprintf("registering job %d", id))
}

// randomLists draws n random atom lists over universe atoms (an atom may
// repeat within a list, and a list may be empty).
func (a *atomGraphs) randomLists(n, universe int) [][]store.AtomID {
	lists := make([][]store.AtomID, n)
	for s := range lists {
		for k := a.rng.Intn(4); k > 0; k-- {
			c := a.rng.Intn(universe)
			lists[s] = append(lists[s], store.AtomID{Step: c % 2, Code: morton.Code(c / 2)})
		}
	}
	return lists
}

// serve completes up to k schedulable queries, one at a time.
func (a *atomGraphs) serve(k int) {
	a.t.Helper()
	for ; k > 0; k-- {
		ready := a.m.Schedulable()
		if len(ready) == 0 {
			return
		}
		q := ready[a.rng.Intn(len(ready))]
		a.g.MarkDone(q)
		a.m.MarkDone(q)
		a.compare("completing " + q.String())
	}
}

func (a *atomGraphs) prune() {
	a.t.Helper()
	a.g.Prune()
	a.m.Prune()
	a.compare("pruning")
}

// compare diffs everything the production graph exposes against the model.
func (a *atomGraphs) compare(after string) {
	a.t.Helper()
	g, m := a.g, a.m
	if !reflect.DeepEqual(a.gotEdges, a.wantEdges) {
		a.t.Fatalf("after %s: edge rulings\n real %v\nmodel %v", after, a.gotEdges, a.wantEdges)
	}
	a.gotEdges, a.wantEdges = a.gotEdges[:0], a.wantEdges[:0]
	if g.EdgesAdmitted() != m.EdgesAdmitted() || g.EdgesRejected() != m.EdgesRejected() || g.Finished() != m.Finished() {
		a.t.Fatalf("after %s: admitted %d/%d rejected %d/%d finished %v/%v (real/model)", after,
			g.EdgesAdmitted(), m.EdgesAdmitted(), g.EdgesRejected(), m.EdgesRejected(), g.Finished(), m.Finished())
	}
	if real, model := g.Schedulable(), m.Schedulable(); !refsEqual(real, model) {
		a.t.Fatalf("after %s: schedulable real=%s model=%s", after, refsString(real), refsString(model))
	}
	for _, q := range a.refs {
		if g.State(q) != m.State(q) || g.GatingNumber(q) != m.GatingNumber(q) {
			a.t.Fatalf("after %s: %v is %v G=%d, model %v G=%d", after, q, g.State(q), g.GatingNumber(q), m.State(q), m.GatingNumber(q))
		}
		partners := m.Partners(q)
		if !refsEqual(g.Partners(q), partners) {
			a.t.Fatalf("after %s: partners of %v: real %s, model %s", after, q,
				refsString(g.Partners(q)), refsString(partners))
		}
		// What holds q back, restated over the model: a WAIT query its
		// predecessor, a READY one its partners short of READY.
		var blockers []jobgraph.Ref
		if _, live := a.m.jobLen[q.Job]; live {
			switch m.State(q) {
			case jobgraph.Wait:
				blockers = append(blockers, jobgraph.Ref{Job: q.Job, Seq: q.Seq - 1})
			case jobgraph.Ready:
				for _, p := range partners {
					if m.State(p) < jobgraph.Ready {
						blockers = append(blockers, p)
					}
				}
			}
		}
		if got := g.BlockedBy(q, nil); !refsEqual(got, blockers) {
			a.t.Fatalf("after %s: %v blocked by %s, model %s", after, q, refsString(got), refsString(blockers))
		}
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
		a := newAtomGraphs(t, 2000+seed)
		universe := 4 + a.rng.Intn(8)
		jobs := 3 + a.rng.Intn(8)
		for id := int64(1); id <= int64(jobs); id++ {
			a.register(id, a.randomLists(1+a.rng.Intn(8), universe))
			a.serve(a.rng.Intn(6))
			if a.rng.Intn(3) == 0 {
				a.prune()
			}
		}
		for _, d := range CheckDeadlockFree(a.g, a.m) {
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
		a := newAtomGraphs(t, 1000+seed)
		for j := int64(1); j <= 3; j++ {
			a.register(j, a.randomLists(1+a.rng.Intn(4), 5))
		}
		if seed%2 == 0 {
			if diffs := CheckDeadlockFree(a.g, a.m); len(diffs) > 0 {
				t.Fatalf("seed %d wave 1: %v", seed, diffs)
			}
		} else {
			a.serve(1 + a.rng.Intn(6))
		}
		a.prune()
		for j := int64(4); j <= 6; j++ {
			a.register(j, a.randomLists(1+a.rng.Intn(4), 5))
			a.serve(a.rng.Intn(3))
			a.prune()
		}
		if diffs := CheckDeadlockFree(a.g, a.m); len(diffs) > 0 {
			t.Fatalf("seed %d wave 2: %v", seed, diffs)
		}
	}
}
