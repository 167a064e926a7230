package jobgraph

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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

// edgeEvent is one observer call.
type edgeEvent struct {
	admitted bool
	u, v     Ref
}

const (
	opsMaxJobID = 24
	opsMaxLen   = 12
	opsMaxAdds  = 48
)

// replayOps interprets data as an op log — register a job with its atom
// lists, complete schedulable queries, prune — and applies it to a Graph and to the map-based reference side by
// side, comparing everything the two expose after every op. Job IDs are
// drawn from a small range in no particular order, so the dynamic
// program's orientation varies, duplicates are attempted, and a pruned ID
// (and its slot) comes back. crossings is how many edges the reference
// refused by its crossing scan, which Graph does not have.
func replayOps(t testing.TB, data []byte) (adds, pruned, crossings int) {
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	next() // a header byte no op reads: committed logs keep their alignment
	g, ref := New(nil), newRefGraph()
	var gotEvents, wantEvents []edgeEvent
	g.SetObserver(func(ok bool, u, v Ref) { gotEvents = append(gotEvents, edgeEvent{ok, u, v}) })
	ref.SetObserver(func(ok bool, u, v Ref) { wantEvents = append(wantEvents, edgeEvent{ok, u, v}) })

	var longest [opsMaxJobID + 1]int // per job ID, the most queries it was ever registered with
	var blockers, refBlockers []Ref
	compare := func(op string) {
		t.Helper()
		if err := checkTables(g); err != nil {
			t.Fatalf("after %s: %v", op, err)
		}
		if !slices.Equal(gotEvents, wantEvents) {
			t.Fatalf("after %s: edge events\n got %v\nwant %v", op, gotEvents, wantEvents)
		}
		gotEvents, wantEvents = gotEvents[:0], wantEvents[:0]
		if len(g.order) != ref.Jobs() || g.Finished() != ref.Finished() ||
			g.EdgesAdmitted() != ref.EdgesAdmitted() || g.EdgesRejected() != ref.EdgesRejected() {
			t.Fatalf("after %s: jobs %d/%d finished %v/%v admitted %d/%d rejected %d/%d (got/want)", op,
				len(g.order), ref.Jobs(), g.Finished(), ref.Finished(),
				g.EdgesAdmitted(), ref.EdgesAdmitted(), g.EdgesRejected(), ref.EdgesRejected())
		}
		if got, want := g.Schedulable(), ref.Schedulable(); !slices.Equal(got, want) {
			t.Fatalf("after %s: Schedulable %v, want %v", op, got, want)
		}
		// Every query ever registered, pruned ones included, a sequence
		// number past each end, and job 0, which never is.
		for id := int64(0); id <= opsMaxJobID; id++ {
			if g.Registered(id) != (ref.jobs[id] != nil) {
				t.Fatalf("after %s: Registered(%d) = %v", op, id, g.Registered(id))
			}
			for s := -1; s <= longest[id]; s++ {
				q := Ref{Job: id, Seq: s}
				if g.State(q) != ref.State(q) || g.GatingNumber(q) != ref.GatingNumber(q) {
					t.Fatalf("after %s: %v is %v G=%d, want %v G=%d", op, q,
						g.State(q), g.GatingNumber(q), ref.State(q), ref.GatingNumber(q))
				}
				want := ref.Partners(q)
				if got := g.Partners(q); !slices.Equal(got, want) {
					t.Fatalf("after %s: Partners(%v) = %v, want %v", op, q, got, want)
				}
				blockers, refBlockers = g.BlockedBy(q, blockers[:0]), ref.BlockedBy(q, refBlockers[:0])
				if !slices.Equal(blockers, refBlockers) {
					t.Fatalf("after %s: BlockedBy(%v) = %v, want %v", op, q, blockers, refBlockers)
				}
			}
		}
		// The incremental propagation left nothing for the fixpoint to do.
		g.propagateAll()
		if got, want := g.Schedulable(), ref.Schedulable(); !slices.Equal(got, want) {
			t.Fatalf("after %s: the full fixpoint promoted further: %v, want %v", op, got, want)
		}
	}

	for {
		op, ok := next()
		if !ok {
			return adds, pruned, ref.crossings
		}
		switch {
		case op%8 < 2: // register
			hdr, _ := next()
			id := int64(op>>3)%opsMaxJobID + 1
			n := int(hdr&15)%opsMaxLen + 1
			if adds == opsMaxAdds {
				continue
			}
			lists := make([][]store.AtomID, n)
			if !g.Registered(id) {
				for s := range lists {
					b, _ := next()
					a1, a2 := int(b&7), int(b>>3&7)
					codes := [][]int{{a1}, {a1, a2}, {a1, a2, (a1 + a2) % 8}, {}}[b>>6]
					for _, c := range codes {
						lists[s] = append(lists[s], store.AtomID{Step: c & 1, Code: morton.Code(c >> 1)})
					}
				}
			}
			// The graph copies the lists; the reference keeps them.
			scratch := make([][]store.AtomID, n)
			for s := range lists {
				scratch[s] = append([]store.AtomID(nil), lists[s]...)
			}
			got, want := g.AddJobWithAtoms(id, scratch), ref.AddJobWithAtoms(id, lists)
			for s := range scratch {
				clear(scratch[s])
			}
			if (got == nil) != (want == nil) {
				t.Fatalf("register job %d: %v, want %v", id, got, want)
			}
			if got == nil {
				adds++
				longest[id] = max(longest[id], n)
			}
			compare(fmt.Sprintf("register job %d (%d queries)", id, n))
		case op%8 < 7: // complete up to four schedulable queries
			for k := 0; k <= int(op>>6); k++ {
				ready := ref.Schedulable()
				if len(ready) == 0 {
					break
				}
				q := ready[int(op>>3&7)%len(ready)]
				g.MarkDone(q)
				ref.MarkDone(q)
				compare("MarkDone " + q.String())
			}
		default:
			before := len(g.order)
			g.Prune()
			ref.Prune()
			pruned += before - len(g.order)
			compare("Prune")
		}
	}
}

// The dense-table graph must be indistinguishable from the map-based one
// it replaced, over random op logs: both merge orders, completions and
// prunes between registrations.
func TestGraphMatchesReference(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 60
	}
	adds, pruned, crossings := 0, 0, 0
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		data := make([]byte, 100+rng.Intn(500))
		rng.Read(data)
		a, p, c := replayOps(t, data)
		adds, pruned, crossings = adds+a, pruned+p, crossings+c
	}
	t.Logf("%d op logs: %d jobs registered, %d pruned, %d edges refused by the reference's crossing scan", seeds, adds, pruned, crossings)
	if pruned < seeds {
		t.Fatalf("op logs pruned only %d jobs: the generator no longer reaches Prune's interesting cases", pruned)
	}
	// Graph refuses a crossing edge by its level check, without the scan
	// (admitEdge): the op logs must keep reaching the case.
	if crossings < seeds {
		t.Fatalf("the reference's crossing scan refused only %d edges: the generator no longer certifies that Graph refuses them too", crossings)
	}
}

func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{0, 0, 2, 1, 9, 8, 3, 9, 1, 4, 4, 7, 16, 1, 1})
	f.Add([]byte{1, 1, 19, 1, 2, 3, 9, 4, 65, 66, 67, 2, 2, 7, 0, 5, 1, 1, 1, 1, 1})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		data := make([]byte, 200)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		replayOps(t, data[:min(len(data), 1024)]) // an op costs a full comparison: bound the log
	})
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
