package system_test

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"jaws/internal/engine"
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

// replayWarm is the wall-clock benchmark's replay-warm workload: the
// derivative-chain trace under the tail-policy stack, replayed on a System
// whose cache holds the whole 8-step store — kernels not evaluated.
func replayWarm(t testing.TB) (*system.System, func() []*job.Job) {
	t.Helper()
	s := experiments.DefaultScale()
	s.Scenario = "deriv-chain"
	s.Steps = 8
	s.CacheAtoms = 8 * s.Space.AtomsPerStep()
	s.TailPolicy = "gate-aware;cross-step:span=2;adaptive-batch"
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
// trace on a fresh system allocates at most coldObjects objects and
// coldKiB KiB per query. The counts that must not move with it ride along:
// the run reads, hits, evicts and gates exactly as BENCH_main.json's.
func TestRunAllocBudget(t *testing.T) {
	// The 0.440 objects and 0.647 KiB measured with the engine path's
	// arena, plus the benchmark's 2 % and 6 % bounds.
	const coldObjects, coldKiB = 0.449, 0.686
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
	if objects > coldObjects || kib > coldKiB {
		t.Errorf("Run allocates %.3f objects and %.3f KiB per query, want at most %.3f and %.3f", objects, kib, coldObjects, coldKiB)
	}
	c := rep.CacheStats
	if c.Misses != 6432 || c.Hits != 14714 || c.Evictions != 6304 {
		t.Errorf("cache: %d misses, %d hits, %d evictions, want 6432, 14714, 6304", c.Misses, c.Hits, c.Evictions)
	}
	if rep.GatingAdmitted != 2369 || rep.GatingRejected != 9866 {
		t.Errorf("gating edges: %d admitted, %d refused, want 2369, 9866", rep.GatingAdmitted, rep.GatingRejected)
	}
}

// TestWarmRunAllocBudget is TestRunAllocBudget's twin on replay-warm: the
// second Run of a System whose cache the first filled reads nothing, so
// what it allocates is admission, pre-processing and scheduling: at most
// warmObjects objects per query.
func TestWarmRunAllocBudget(t *testing.T) {
	// The 0.436 measured with the engine path's arena, plus 2 %.
	const warmObjects = 0.445
	if poolDrops() {
		t.Skip("sync.Pool drops Puts (race detector): the budget assumes the pooled scratch comes back")
	}
	sys, trace := replayWarm(t)
	warm, err := sys.Run(trace())
	if err != nil {
		t.Fatal(err)
	}
	jobs := trace()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	rep, err := sys.Run(jobs)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	const queries = 6610
	if misses := rep.CacheStats.Misses - warm.CacheStats.Misses; rep.Completed != queries || misses != 0 {
		t.Fatalf("completed %d queries with %d misses, want %d and none", rep.Completed, misses, queries)
	}
	objects := float64(m1.Mallocs-m0.Mallocs) / queries
	t.Logf("%.3f objects per query", objects)
	if objects > warmObjects {
		t.Errorf("a warm Run allocates %.3f objects per query, want at most %.3f", objects, warmObjects)
	}
}

// TestFramesDieWithEngine: the query frames, the atom-queue records, their
// arenas and free lists are the engine's and the scheduler's, and a System
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
// same rule for the store). TotalAlloc counts the whole process, and
// another goroutine (the runtime's, a finalizer) can only add to it, so an
// Open's bytes are the fewest any of several Opens took.
func TestOpenIndependentOfCacheCapacity(t *testing.T) {
	const opens = 8
	bytes := func(atoms int) uint64 {
		fewest := uint64(math.MaxUint64)
		for range opens {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if _, err := system.Open(system.Config{CacheAtoms: atoms}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			fewest = min(fewest, m1.TotalAlloc-m0.TotalAlloc)
		}
		return fewest
	}
	bytes(256) // anything built once per process
	if small, large := bytes(256), bytes(1<<20); small != large {
		t.Fatalf("Open allocates %d B at a 256-atom cache and %d B at a 2^20-atom one", small, large)
	}
}

// TestWarmSystemHeldBytes is the in-repo twin of the benchmark's
// live_heap_mb on replay-warm: what a caller holding a warm System and its
// last Report keeps on the heap, per atom resident in its cache — the
// atoms' handles and cache entries are most of it. The System is opened,
// warmed by one Run and run twice more, as the benchmark does; its heap
// then holds at most heldPerAtom bytes per resident atom. The run evaluates no kernel, so no fill
// ever ran and the atoms' geometry built no phase table: the heap profile
// shows no allocation in field.Geometry.phases, which builds the tables,
// and does show the handles' own (field.Geometry.FrameInto).
func TestWarmSystemHeldBytes(t *testing.T) {
	if poolDrops() {
		t.Skip("sync.Pool drops Puts (race detector): the pre-processor's scratch is regrown at random")
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // the first may have run finalizers that freed more
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	sys, trace := replayWarm(t)
	var rep *engine.Report
	for range 3 {
		var err error
		if rep, err = sys.Run(trace()); err != nil {
			t.Fatal(err)
		}
	}
	held := heap() - before
	resident := sys.Cache().Len()
	runtime.KeepAlive(sys)
	runtime.KeepAlive(rep)
	if resident != 1669 || rep.CacheStats.Evictions != 0 {
		t.Fatalf("%d atoms resident, %d evicted; want the trace's 1669, none evicted", resident, rep.CacheStats.Evictions)
	}
	perAtom := float64(held) / float64(resident)
	t.Logf("a warm System holds %d B: %.1f B per resident atom", held, perAtom)
	// The 127.0 B measured with 24-byte atom handles, plus 10 %.
	const heldPerAtom = 139.7
	if perAtom > heldPerAtom {
		t.Errorf("a warm System holds %.1f B per resident atom, want at most %.1f", perAtom, heldPerAtom)
	}

	// The heap profile, published by the collections above.
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		t.Fatal("the heap profile outgrew its buffer")
	}
	allocated := func(fn string) (bytes int64) {
		for _, r := range recs[:n] {
			frames := runtime.CallersFrames(r.Stack())
			for {
				f, more := frames.Next()
				if strings.HasPrefix(f.Function, fn) {
					bytes += r.AllocBytes
					break
				}
				if !more {
					break
				}
			}
		}
		return bytes
	}
	if b := allocated("jaws/internal/field.(*Geometry).FrameInto"); b < int64(resident)*24 {
		t.Fatalf("the heap profile shows %d B of handles, want at least the %d resident: it does not see field's allocations", b, resident)
	}
	if b := allocated("jaws/internal/field.(*Geometry).phases"); b != 0 {
		t.Errorf("a System that evaluates no kernel built %d B of phase tables, want none", b)
	}
}
