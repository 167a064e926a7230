package cache

import (
	"slices"
	"testing"

	"jaws/internal/field"
	"jaws/internal/morton"
	"jaws/internal/store"
)

func id(step, code int) store.AtomID {
	return store.AtomID{Step: step, Code: morton.Code(code)}
}

// handles returns n distinct atom handles for the cache to hold.
func handles(n int) []*field.Atom {
	h := make([]*field.Atom, n)
	for i := range h {
		h[i] = new(field.Atom)
	}
	return h
}

func TestNewValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero capacity accepted")
			}
		}()
		New(0, NewLRUK(1, 0))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil policy accepted")
			}
		}()
		New(1, nil)
	}()
}

func TestGetMissAndHit(t *testing.T) {
	c := New(2, NewLRUK(1, 0))
	if _, ok := c.Get(id(0, 1)); ok {
		t.Fatal("hit on empty cache")
	}
	a := new(field.Atom)
	c.Put(id(0, 1), a)
	v, ok := c.Get(id(0, 1))
	if !ok || v != a {
		t.Fatalf("Get = %v/%v", v, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPutRefreshesExisting(t *testing.T) {
	c := New(2, NewLRUK(1, 0))
	h := handles(2)
	if old := c.Put(id(0, 1), h[0]); old != nil {
		t.Fatalf("Put into an empty cache displaced %v", old)
	}
	if old := c.Put(id(0, 1), h[1]); old != h[0] {
		t.Fatalf("same-id Put handed back %v, want the replaced handle", old)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after duplicate Put", c.Len())
	}
	if v, _ := c.Get(id(0, 1)); v != h[1] {
		t.Fatalf("value not refreshed: %v", v)
	}
}

func TestCapacityEnforced(t *testing.T) {
	c := New(3, NewLRUK(1, 0))
	h := handles(10)
	for i := 0; i < 10; i++ {
		// Every Put past the capacity hands back the handle it evicted.
		var want *field.Atom
		if i >= 3 {
			want = h[i-3]
		}
		if old := c.Put(id(0, i), h[i]); old != want {
			t.Fatalf("Put %d displaced %v, want %v", i, old, want)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if c.Stats().Evictions != 7 {
		t.Fatalf("Evictions = %d, want 7", c.Stats().Evictions)
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := New(2, NewLRUK(1, 0))
	c.Put(id(0, 1), nil)
	c.Put(id(0, 2), nil)
	// Probing 1 via Contains must not refresh its recency.
	if !c.Contains(id(0, 1)) {
		t.Fatal("Contains false for resident atom")
	}
	hits := c.Stats().Hits
	c.Put(id(0, 3), nil) // evicts LRU = 1
	if c.Contains(id(0, 1)) {
		t.Fatal("Contains perturbed LRU order")
	}
	if c.Stats().Hits != hits {
		t.Fatal("Contains counted as a hit")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(2, NewLRUK(1, 0))
	c.Put(id(0, 1), nil)
	c.Put(id(0, 2), nil)
	c.Get(id(0, 1))      // 1 becomes MRU
	c.Put(id(0, 3), nil) // evicts 2
	if !c.Contains(id(0, 1)) || c.Contains(id(0, 2)) || !c.Contains(id(0, 3)) {
		t.Fatal("LRU evicted the wrong atom")
	}
}

func TestHitRatio(t *testing.T) {
	var s Stats
	if s.HitRatio() != 0 {
		t.Fatal("empty stats ratio not 0")
	}
	s.Hits, s.Misses = 3, 1
	if s.HitRatio() != 0.75 {
		t.Fatalf("ratio = %g", s.HitRatio())
	}
}

func TestResetStats(t *testing.T) {
	c := New(2, NewLRUK(1, 0))
	c.Put(id(0, 1), nil)
	c.Get(id(0, 1))
	c.ResetStats()
	if s := c.Stats(); s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("reset left %+v", s)
	}
	if c.Len() != 1 {
		t.Fatal("reset dropped contents")
	}
}

func TestPolicyName(t *testing.T) {
	for _, tc := range []struct {
		p    Policy
		want string
	}{
		{NewLRUK(2, 0), "lru-k"},
		{NewSLRU(10, 0.2), "slru"},
		{NewURC(), "urc"},
	} {
		if tc.p.Name() != tc.want {
			t.Errorf("Name = %q, want %q", tc.p.Name(), tc.want)
		}
	}
}

// Generic conformance: under any policy the cache never exceeds capacity
// and never loses the most recently inserted atom immediately.
func TestPolicyConformance(t *testing.T) {
	policies := []func() Policy{
		func() Policy { return NewLRUK(1, 0) },
		func() Policy { return NewLRUK(2, 0) },
		func() Policy { return NewSLRU(4, 0.25) },
		func() Policy { return NewURC() },
	}
	for _, mk := range policies {
		p := mk()
		c := New(4, p)
		h := handles(100)
		for i := 0; i < 100; i++ {
			c.Put(id(i%3, i), h[i])
			if c.Len() > 4 {
				t.Fatalf("%s: cache over capacity: %d", p.Name(), c.Len())
			}
			if i%7 == 0 {
				c.Get(id(i%3, i))
			}
			if i%10 == 9 {
				c.EndRun()
			}
		}
		if c.Len() == 0 {
			t.Fatalf("%s: cache empty after inserts", p.Name())
		}
	}
}

func TestLRUKPrefersReusedAtoms(t *testing.T) {
	// Atom 1 is referenced repeatedly (≥K times spread out); atoms 2..n are
	// touched once. LRU-K must evict a single-reference atom, not atom 1,
	// even when atom 1's last touch is older.
	p := NewLRUK(2, 0)
	c := New(3, p)
	c.Put(id(0, 1), nil)
	c.Get(id(0, 1))
	c.Get(id(0, 1)) // two references: finite K-distance
	c.Put(id(0, 2), nil)
	c.Put(id(0, 3), nil)
	c.Put(id(0, 4), nil) // must evict 2 or 3 (single-reference), not 1
	if !c.Contains(id(0, 1)) {
		t.Fatal("LRU-K evicted the K-referenced atom")
	}
}

func TestLRUKCorrelatedReferences(t *testing.T) {
	// With a correlated reference period, a rapid burst on atom 2 counts
	// as one reference, so it stays "infinite distance" and evicts before
	// atom 1, which has two well-separated references.
	p := NewLRUK(2, 3)
	c := New(2, p)
	c.Put(id(0, 1), nil)
	c.Put(id(0, 2), nil)
	c.Get(id(0, 2)) // correlated with its insert (within 3 ticks)
	c.Get(id(0, 1))
	c.Get(id(0, 1)) // ticks now beyond the period: real second reference
	c.Put(id(0, 3), nil)
	if !c.Contains(id(0, 1)) {
		t.Fatal("correlated burst outranked genuine reuse")
	}
}

func TestSLRUProtectedSurvivesScan(t *testing.T) {
	// Atom 1 is hot during run 1 and gets promoted; a full scan of cold
	// atoms in run 2 must not evict it.
	p := NewSLRU(4, 0.25) // protected capacity 1
	c := New(4, p)
	c.Put(id(0, 1), nil)
	for i := 0; i < 5; i++ {
		c.Get(id(0, 1))
	}
	c.Put(id(0, 2), nil)
	c.EndRun() // promotes atom 1
	if p.prot.Len() != 1 {
		t.Fatalf("protected segment = %d, want 1", p.prot.Len())
	}
	for i := 10; i < 20; i++ { // scan: 10 cold atoms through a 4-atom cache
		c.Put(id(0, i), nil)
	}
	if !c.Contains(id(0, 1)) {
		t.Fatal("scan flushed the protected atom")
	}
}

func TestSLRUDemotion(t *testing.T) {
	p := NewSLRU(4, 0.25) // protected capacity 1
	c := New(4, p)
	c.Put(id(0, 1), nil)
	c.Get(id(0, 1))
	c.EndRun() // 1 promoted
	// Run 2: atom 2 is hotter.
	c.Put(id(0, 2), nil)
	for i := 0; i < 5; i++ {
		c.Get(id(0, 2))
	}
	c.EndRun() // 2 promoted, 1 demoted to probationary MRU
	if p.prot.Len() != 1 {
		t.Fatalf("protected segment = %d, want 1", p.prot.Len())
	}
	// 1 must still be resident (demoted to MRU end, not dropped).
	if !c.Contains(id(0, 1)) {
		t.Fatal("demotion dropped the atom")
	}
}

func TestSLRUZeroProtected(t *testing.T) {
	p := NewSLRU(4, 0)
	c := New(4, p)
	for i := 0; i < 10; i++ {
		c.Put(id(0, i), nil)
		c.EndRun()
	}
	if p.prot.Len() != 0 {
		t.Fatal("protected segment grew despite zero fraction")
	}
}

func TestSLRUClampsFraction(t *testing.T) {
	p := NewSLRU(10, 0.9) // clamped to 0.5
	if p.protCap != 5 {
		t.Fatalf("protected capacity = %d, want 5 (clamped)", p.protCap)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SLRU accepted non-positive capacity")
			}
		}()
		NewSLRU(0, 0.1)
	}()
}

func TestURCEvictsLowestUtility(t *testing.T) {
	p := NewURC()
	c := New(3, p)
	c.Put(id(0, 1), nil)
	c.Put(id(0, 2), nil)
	c.Put(id(0, 3), nil)
	p.stepMean[0] = 1.0
	p.SetAtomUtility(id(0, 1), 5)
	p.SetAtomUtility(id(0, 2), 1) // coldest within the step
	p.SetAtomUtility(id(0, 3), 9)
	c.Put(id(0, 4), nil) // evicts 2
	if c.Contains(id(0, 2)) {
		t.Fatal("URC kept the lowest-utility atom")
	}
	if !c.Contains(id(0, 1)) || !c.Contains(id(0, 3)) {
		t.Fatal("URC evicted a higher-utility atom")
	}
}

func TestURCStepOrdering(t *testing.T) {
	// Atoms from the step with lower mean throughput evict first even if
	// their per-atom utility is higher.
	p := NewURC()
	c := New(2, p)
	c.Put(id(0, 1), nil)
	c.Put(id(1, 1), nil)
	p.stepMean[0] = 0.1 // cold step
	p.stepMean[1] = 5.0 // hot step
	p.SetAtomUtility(id(0, 1), 100)
	p.SetAtomUtility(id(1, 1), 0.5)
	c.Put(id(1, 2), nil) // must evict the cold-step atom
	if c.Contains(id(0, 1)) {
		t.Fatal("URC ignored step-level ordering")
	}
	if !c.Contains(id(1, 1)) {
		t.Fatal("URC evicted hot-step atom")
	}
}

func TestURCUnknownUtilitiesEvictFirst(t *testing.T) {
	p := NewURC()
	c := New(2, p)
	c.Put(id(0, 1), nil)
	c.Put(id(0, 2), nil)
	p.stepMean[0] = 1
	p.SetAtomUtility(id(0, 1), 3)
	// atom 2 has no pending workload: defaults to zero utility.
	c.Put(id(0, 3), nil)
	if c.Contains(id(0, 2)) {
		t.Fatal("atom with no pending requests survived eviction")
	}
}

func TestURCMetadataBounded(t *testing.T) {
	p := NewURC()
	c := New(8, p)
	for i := 0; i < 1000; i++ {
		c.Put(id(i%3, i), nil)
		p.SetAtomUtility(id(i%3, i), float64(i))
		p.stepMean[i%3] = float64(i)
	}
	// Eviction must clean up per-atom metadata: only resident atoms plus
	// the 3 step means remain.
	if got := len(p.atomUt) + len(p.stepMean); got > 8+3 {
		t.Fatalf("URC metadata grew unbounded: %d entries", got)
	}
}

func TestURCDeterministicTieBreak(t *testing.T) {
	run := func() store.AtomID {
		p := NewURC()
		c := New(3, p)
		c.Put(id(0, 1), nil)
		c.Put(id(0, 2), nil)
		c.Put(id(0, 3), nil)
		// All utilities equal: victim must be deterministic.
		c.Put(id(0, 4), nil)
		for _, candidate := range []store.AtomID{id(0, 1), id(0, 2), id(0, 3)} {
			if !c.Contains(candidate) {
				return candidate
			}
		}
		t.Fatal("nothing evicted")
		return store.AtomID{}
	}
	first := run()
	for i := 0; i < 5; i++ {
		if run() != first {
			t.Fatal("URC tie-break not deterministic")
		}
	}
}

func TestPolicyTimeAccumulates(t *testing.T) {
	c := New(4, NewURC())
	for i := 0; i < 100; i++ {
		c.Put(id(0, i), nil)
	}
	if c.Stats().PolicyTime <= 0 {
		t.Fatal("PolicyTime not measured")
	}
}

func BenchmarkLRUKPut(b *testing.B) { benchPolicy(b, NewLRUK(2, 0)) }
func BenchmarkSLRUPut(b *testing.B) { benchPolicy(b, NewSLRU(256, 0.05)) }
func BenchmarkURCPut(b *testing.B)  { benchPolicy(b, NewURC()) }

func benchPolicy(b *testing.B, p Policy) {
	c := New(256, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(id(i%31, i%4096), nil)
		if i%100 == 99 {
			c.EndRun()
		}
	}
}

func TestFlush(t *testing.T) {
	c := New(4, NewLRUK(1, 0))
	h := handles(4)
	for i := 0; i < 4; i++ {
		c.Put(id(0, i), h[i])
	}
	c.Flush(nil)
	if c.Len() != 0 {
		t.Fatalf("Flush left %d entries", c.Len())
	}
	if c.Stats().Evictions != 4 {
		t.Fatalf("Flush evictions = %d", c.Stats().Evictions)
	}
	// Cache must remain usable.
	c.Put(id(0, 9), nil)
	if !c.Contains(id(0, 9)) {
		t.Fatal("cache broken after Flush")
	}
}

// What the cache drops other than through Put's eviction also goes back to
// the caller that owns the atoms: everything on a Flush, and a resident
// atom dropped as corrupt (TestIntegrityCorruptionDropsEntry).
func TestDroppedValuesHandedBack(t *testing.T) {
	c := New(4, NewLRUK(1, 0))
	h := handles(4)
	for i := 0; i < 3; i++ {
		c.Put(id(0, i), h[i])
	}
	got := c.Flush([]*field.Atom{h[3]})
	if len(got) != 4 || got[0] != h[3] {
		t.Fatalf("Flush returned %v, want the buffer's element and the 3 residents", got)
	}
	for _, want := range h[:3] {
		if !slices.Contains(got[1:], want) {
			t.Fatalf("Flush returned %v, want each resident's handle once", got[1:])
		}
	}
	if got := c.Flush(nil); len(got) != 0 {
		t.Fatalf("Flush of an empty cache returned %v", got)
	}
}

func TestLRUKRetainedHistory(t *testing.T) {
	// An atom that cycles out of the cache and promptly returns must keep
	// its reference history (the retained-information refinement); a
	// freshly inserted cold atom should be evicted in preference to it.
	p := NewLRUK(2, 0)
	c := New(2, p)
	c.Put(id(0, 1), nil)
	c.Get(id(0, 1)) // two refs: finite K-distance
	c.Put(id(0, 2), nil)
	c.Put(id(0, 3), nil) // evicts one of 1, 2 (both resident, 1 is finite → 2 goes)
	if !c.Contains(id(0, 1)) {
		t.Fatal("two-reference atom evicted before single-reference atoms")
	}
	c.Put(id(0, 4), nil) // evicts 3 (short) — 1 still protected
	c.Put(id(0, 1), nil) // 1 returns... wait, 1 is still resident here
	if !c.Contains(id(0, 1)) {
		t.Fatal("hot atom lost")
	}
	// Now force 1 out and bring it back: history must survive eviction.
	p2 := NewLRUK(2, 0)
	c2 := New(1, p2)
	c2.Put(id(0, 7), nil)
	c2.Get(id(0, 7))
	c2.Get(id(0, 7))      // rich history
	c2.Put(id(0, 8), nil) // evicts 7
	c2.Put(id(0, 7), nil) // 7 returns: now has ≥2 refs counting history
	if len(p2.history(id(0, 7))) < 2 {
		t.Fatal("reference history not retained across eviction")
	}
}

func TestLRUKNoFreeze(t *testing.T) {
	// Regression: without retained history + resident tracking, atoms that
	// gained K references early freeze in the cache forever while every
	// newcomer thrashes through one revolving slot. Verify that a shift in
	// the hot set eventually displaces the old hot atoms.
	p := NewLRUK(2, 0)
	c := New(4, p)
	// Phase 1: atoms 1..4 become hot (2 refs each).
	for i := 1; i <= 4; i++ {
		c.Put(id(0, i), nil)
		c.Get(id(0, i))
		c.Get(id(0, i))
	}
	// Phase 2: new hot set 11..14, each touched repeatedly over rounds.
	for round := 0; round < 6; round++ {
		for i := 11; i <= 14; i++ {
			if _, ok := c.Get(id(0, i)); !ok {
				c.Put(id(0, i), nil)
			}
		}
	}
	survivors := 0
	for i := 11; i <= 14; i++ {
		if c.Contains(id(0, i)) {
			survivors++
		}
	}
	if survivors < 2 {
		t.Fatalf("new hot set never displaced the old one: %d/4 resident", survivors)
	}
}

func TestURCRecencyTieBreak(t *testing.T) {
	p := NewURC()
	c := New(3, p)
	c.Put(id(0, 1), nil)
	c.Put(id(0, 2), nil)
	c.Put(id(0, 3), nil)
	// No utilities at all: pure recency. Touch 1 so 2 becomes the LRU.
	c.Get(id(0, 1))
	c.Put(id(0, 4), nil)
	if c.Contains(id(0, 2)) {
		t.Fatal("URC did not fall back to recency among zero-utility atoms")
	}
	if !c.Contains(id(0, 1)) {
		t.Fatal("URC evicted a recently used atom despite ties")
	}
}

func TestURCReplaceStepMeans(t *testing.T) {
	p := NewURC()
	p.stepMean[1] = 5
	p.stepMean[2] = 7
	p.ReplaceStepMeans(map[int]float64{2: 3, 4: 9})
	if _, ok := p.stepMean[1]; ok {
		t.Fatal("stale step mean survived ReplaceStepMeans")
	}
	if p.stepMean[2] != 3 || p.stepMean[4] != 9 {
		t.Fatalf("means not replaced: %v", p.stepMean)
	}
}

func TestIntegrityCorruptionDropsEntry(t *testing.T) {
	c := New(4, NewLRUK(1, 0))
	h := handles(2)
	c.Put(id(0, 1), h[0])
	var missed []store.AtomID
	c.SetObserver(Observer{Miss: func(i store.AtomID) { missed = append(missed, i) }})

	if v := c.Corrupt(id(0, 1)); v != h[0] {
		t.Fatalf("Corrupt handed back %v, want the payload", v)
	}
	if v, ok := c.Get(id(0, 1)); ok || v != nil {
		t.Fatalf("Get after the drop = %v, %v; want a plain miss", v, ok)
	}
	if c.Contains(id(0, 1)) {
		t.Fatal("corrupted entry still resident")
	}
	st := c.Stats()
	if st.Corruptions != 1 || st.Misses != 1 || st.Hits != 0 || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(missed) != 1 {
		t.Fatalf("observer saw %d misses", len(missed))
	}

	// The re-read path restores the atom; a clean hit then works and the
	// policy state stayed coherent (eviction bookkeeping not corrupted).
	c.Put(id(0, 1), h[1])
	if v, ok := c.Get(id(0, 1)); !ok || v != h[1] {
		t.Fatalf("restored entry: %v, %v", v, ok)
	}
	// An atom that is not resident has nothing to drop.
	if v := c.Corrupt(id(0, 2)); v != nil || c.Stats().Corruptions != 1 {
		t.Fatalf("Corrupt of a non-resident = %v, %d corruptions", v, c.Stats().Corruptions)
	}
}

// Version is the scheduler's memoization guard: it must advance on every
// residency mutation (insert, evict, corruption drop, flush) and must NOT
// advance on reads or refreshing Puts — an unchanged value proves every
// Contains answer is unchanged.
func TestVersionTracksResidencyMutations(t *testing.T) {
	c := New(2, NewLRUK(1, 0))
	v0 := c.Version()

	c.Put(id(0, 1), nil) // insert
	if c.Version() == v0 {
		t.Fatal("insert did not advance the version")
	}
	v1 := c.Version()

	c.Get(id(0, 1)) // hit
	c.Get(id(0, 9)) // miss
	c.Contains(id(0, 1))
	c.Put(id(0, 1), new(field.Atom)) // refresh: residency set unchanged
	if c.Version() != v1 {
		t.Fatalf("reads/refresh advanced the version: %d -> %d", v1, c.Version())
	}

	c.Put(id(0, 2), nil)
	v2 := c.Version()
	c.Put(id(0, 3), nil) // full: evicts + inserts
	if c.Version() <= v2 {
		t.Fatal("eviction+insert did not advance the version")
	}
	v3 := c.Version()

	c.Corrupt(id(0, 3)) // corruption drop
	if c.Version() == v3 {
		t.Fatal("corruption drop did not advance the version")
	}
	v4 := c.Version()

	c.Flush(nil)
	if c.Version() == v4 {
		t.Fatal("flush did not advance the version")
	}
	if c.Len() != 0 {
		t.Fatalf("len after flush = %d", c.Len())
	}
}

// An ID whose key collides with a resident's — a step or a code past the
// packing's bounds, which no store hands out — is not resident, and the
// cache refuses to hold one.
func TestUnpackableIDNeverResident(t *testing.T) {
	c := New(2, NewLRUK(1, 0))
	c.Put(id(1, 0), new(field.Atom))
	for _, alias := range []store.AtomID{
		{Step: 1 + 1<<22, Code: 0},
		{Step: 0, Code: 1 << 42},
	} {
		if alias.Key() != id(1, 0).Key() {
			t.Fatalf("%+v keys %#x, not the resident's %#x: the test no longer aliases", alias, alias.Key(), id(1, 0).Key())
		}
		if c.Contains(alias) {
			t.Errorf("%+v is resident under the key of %+v", alias, id(1, 0))
		}
		if a, ok := c.Get(alias); ok || a != nil {
			t.Errorf("Get(%+v) = %v, %v; want a miss", alias, a, ok)
		}
		if a := c.Corrupt(alias); a != nil || c.Len() != 1 {
			t.Errorf("Corrupt(%+v) dropped %v, %d resident", alias, a, c.Len())
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Put(%+v) accepted", alias)
				}
			}()
			c.Put(alias, new(field.Atom))
		}()
	}
}
