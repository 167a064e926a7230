package engine

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"jaws/internal/cache"
	"jaws/internal/job"
	"jaws/internal/jobgraph"
	"jaws/internal/sched"
	"jaws/internal/store"
)

func jobAwareEngine(t *testing.T, s *store.Store) *Engine {
	c := cache.New(16, cache.NewLRUK(1, 0))
	js := sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 4, Resident: c.Contains})
	return newEngine(t, s, js, true, func(cfg *Config) { cfg.Cache = c })
}

// gatedPair sets a job-aware engine up with job 1 = [atom 0, atom 1] and
// job 2 = [atom 1], both submitted: job 2's only query shares atom 1 with
// job 1's second, so it is gated on it.
func gatedPair(t *testing.T) (e *Engine, j1, j2 *job.Job) {
	s := testStore(t)
	e = jobAwareEngine(t, s)
	j1 = orderedJob(s, 1, []int{0, 0}, []uint32{0, 1}, 10*time.Millisecond, 0)
	j2 = orderedJob(s, 2, []int{0}, []uint32{1}, 10*time.Millisecond, 0)
	for _, j := range []*job.Job{j1, j2} {
		e.jobsByID[j.ID] = liveJob{j, len(j.Queries)}
	}
	return e, j1, j2
}

// A gated query is held back twice over: in READY while a partner's
// predecessor is still running, and in QUEUE until every live partner has
// arrived too, so the group is enqueued in one pass. The engine re-checks
// a held query every cycle; the re-check allocates nothing.
func TestCanDispatchZeroAllocs(t *testing.T) {
	e, j1, j2 := gatedPair(t)
	e.onArrival(j1.Queries[0])
	e.onArrival(j2.Queries[0])
	held := j2.Queries[0]
	recheck := func(why string) {
		t.Helper()
		if e.canDispatch(held) {
			t.Fatalf("job 2's query dispatchable %s", why)
		}
		if n := testing.AllocsPerRun(100, func() { e.canDispatch(held) }); n != 0 {
			t.Errorf("re-check of a query held %s: %v allocs, want 0", why, n)
		}
	}
	if st := e.graph.State(jobgraph.Ref{Job: 2, Seq: 0}); st != jobgraph.Ready {
		t.Fatalf("job 2's query is %v, want READY behind job 1's first", st)
	}
	recheck("in READY")

	if !e.admitArrived() || len(e.arrived) != 1 {
		t.Fatalf("admission left %d queries waiting, want job 2's alone", len(e.arrived))
	}
	decide(t, e) // completes job 1's first query: its second leaves WAIT, the gate opens
	if st := e.graph.State(jobgraph.Ref{Job: 2, Seq: 0}); st != jobgraph.Queue {
		t.Fatalf("job 2's query is %v after job 1's first completed, want QUEUE", st)
	}
	recheck("until its partner arrives")

	e.onArrival(j1.Queries[1]) // think time over
	if !e.canDispatch(held) || !e.canDispatch(j1.Queries[1]) {
		t.Fatal("the group is not dispatchable with every member arrived")
	}
}

// On a warmed job-aware engine, the arrival of an ordered job — atom lists,
// registration and merge into the graph, arrival mark, gate check — and the
// dispatch of its first query into a recycled frame allocate a member array
// per gating edge the job was admitted with, and nothing else.
func TestArrivalPathAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := testStore(t)
	e := jobAwareEngine(t, s)
	// Every job starts on its own atom of step 0 and then walks atoms 0–2 of
	// the later steps: the first query is free to go, the rest share.
	mk := func(id int64) *job.Job {
		j := orderedJob(s, id, []int{0, 1, 2, 3}, []uint32{uint32(id % 4), uint32(id % 3), uint32((id + 1) % 3), uint32(id % 2)}, time.Millisecond, 0)
		e.jobsByID[j.ID] = liveJob{j, len(j.Queries)}
		return j
	}
	arrive := func(j *job.Job) {
		e.onArrival(j.Queries[0])
		if !e.admitArrived() || len(e.arrived) != 0 {
			t.Fatalf("job %d's first query was not dispatched", j.ID)
		}
	}
	for id := int64(1); id <= 48; id++ {
		arrive(mk(id))
		decide(t, e)
	}
	// The pin is on the lower quartile of many jobs: slab and index growth
	// falls on whichever job crosses a boundary, and under the race detector
	// sync.Pool drops a quarter of the pre-processor's scratch or more, which
	// the next call regrows.
	var over []int // per job, allocations beyond its admitted edges
	edges := 0
	for id := int64(100); id < 165; id++ {
		j := mk(id)
		before, m0 := e.graph.EdgesAdmitted(), mallocs()
		arrive(j)
		allocs, admitted := int(mallocs()-m0), e.graph.EdgesAdmitted()-before
		over = append(over, allocs-admitted)
		edges += admitted
		decide(t, e)
	}
	if edges == 0 {
		t.Fatal("the measured jobs were admitted no gating edge")
	}
	slices.Sort(over)
	if quartile := over[len(over)/4]; quartile > 0 {
		t.Errorf("arrival and dispatch of a job allocates %d objects beyond its admitted edges' (lower quartile; all jobs: %v), want none", quartile, over)
	}
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}
