package system_test

import (
	"runtime"
	"sync"
	"testing"

	"jaws/internal/experiments"
	"jaws/internal/job"
	"jaws/internal/system"
)

// replayCold is the wall-clock benchmark's replay-cold workload: the
// BENCH_main.json trace (fig8 at the default scale, 6 099 queries) and the
// node it replays on — JAWS2 over LRU-K, kernels not evaluated.
func replayCold(t testing.TB) (*system.System, func() []*job.Job) {
	t.Helper()
	s := experiments.DefaultScale()
	sys, err := system.Open(s.Node(system.SchedJAWS2, s.BatchSize))
	if err != nil {
		t.Fatal(err)
	}
	return sys, func() []*job.Job { return experiments.FreshJobs(s, 1) }
}

// poolDrops reports whether sync.Pool drops what it is given, as it does
// one time in four under the race detector. The pre-processor's pooled
// scratch is then regrown at random, and an allocation budget means nothing.
func poolDrops() bool {
	var p sync.Pool
	for range 64 {
		p.Put(new(int))
		if p.Get() == nil {
			return true
		}
	}
	return false
}

// TestRunAllocBudget is the in-repo twin of the benchmark's
// allocs_per_query and alloc_kb_per_query on replay-cold: one Run of the
// trace on a fresh system allocates at most 0.865 objects and 0.705 KiB per
// query — the 0.846 and 0.665 measured when the budget was tightened, plus
// the benchmark's 2 % and 6 % bounds (0.85 and 0.83 when it was first set;
// 1.59 and 0.99 before the frame and atom-queue slabs). The counts that
// must not move with it ride along: the run reads, hits, evicts and gates
// exactly as BENCH_main.json's.
func TestRunAllocBudget(t *testing.T) {
	if poolDrops() {
		t.Skip("sync.Pool drops Puts (race detector): the budget assumes the pooled scratch comes back")
	}
	sys, trace := replayCold(t)
	jobs := trace()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	rep, err := sys.Run(jobs)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	const queries = 6099
	if rep.Completed != queries {
		t.Fatalf("completed %d queries, want %d", rep.Completed, queries)
	}
	objects := float64(m1.Mallocs-m0.Mallocs) / queries
	kib := float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / queries
	t.Logf("%.3f objects and %.3f KiB per query", objects, kib)
	if objects > 0.865 || kib > 0.705 {
		t.Errorf("Run allocates %.3f objects and %.3f KiB per query, want at most 0.865 and 0.705", objects, kib)
	}
	c := rep.CacheStats
	if c.Misses != 6432 || c.Hits != 14714 || c.Evictions != 6304 {
		t.Errorf("cache: %d misses, %d hits, %d evictions, want 6432, 14714, 6304", c.Misses, c.Hits, c.Evictions)
	}
	if rep.GatingAdmitted != 2369 || rep.GatingRejected != 9866 {
		t.Errorf("gating edges: %d admitted, %d refused, want 2369, 9866", rep.GatingAdmitted, rep.GatingRejected)
	}
}

// TestFramesDieWithEngine: the query frames, the atom-queue records, their
// slabs and free lists are the engine's and the scheduler's, and a System
// holds neither after Run. What a run leaves on the heap is the warmed
// cache and the report (≈ 150 KiB at this scale) — the frames of one run
// are 2 MiB — and a second run leaves no more than the first.
func TestFramesDieWithEngine(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the first may have run finalizers that freed more
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	sys, trace := replayCold(t)
	before := heap()
	var after [2]int64
	for i := range after {
		rep, err := sys.Run(trace())
		if err != nil {
			t.Fatal(err)
		}
		after[i] = heap()
		runtime.KeepAlive(rep)
	}
	runtime.KeepAlive(sys)
	t.Logf("live heap: %d B before, %+d B after one run, %+d B after two", before, after[0]-before, after[1]-before)
	if grown := after[0] - before; grown > 512<<10 {
		t.Errorf("a run left %d B reachable from the System, want at most 512 KiB (cache and report)", grown)
	}
	if grown := after[1] - after[0]; grown > 64<<10 {
		t.Errorf("a second run left %d B more than the first, want at most 64 KiB", grown)
	}
}

// TestOpenIndependentOfCacheCapacity: opening a System costs the same bytes
// whatever its cache could hold, because the cache reserves nothing for
// atoms it does not hold yet (store's TestOpenIndependentOfSteps is the
// same rule for the store).
func TestOpenIndependentOfCacheCapacity(t *testing.T) {
	const opens = 5
	bytes := func(atoms int) uint64 {
		cfg := system.Config{CacheAtoms: atoms}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range opens {
			if _, err := system.Open(cfg); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		return (m1.TotalAlloc - m0.TotalAlloc) / opens
	}
	bytes(256) // anything built once per process
	if small, large := bytes(256), bytes(1<<20); small != large {
		t.Fatalf("Open allocates %d B at a 256-atom cache and %d B at a 2^20-atom one", small, large)
	}
}
