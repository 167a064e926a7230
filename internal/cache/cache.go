// Package cache implements the externally managed atom cache of §V.B and
// the three replacement policies the paper evaluates in Table I: the LRU-K
// baseline (SQL Server's page replacement is a variant of LRU-K), the
// low-overhead Segmented LRU (SLRU) that promotes frequently accessed
// atoms into a protected segment at the end of each run, and the
// Utility-Ranked Cache (URC) that coordinates eviction with the two-level
// scheduler.
//
// Capacity is counted in atoms: atoms are equal-sized (the paper assumes
// uniform I/O cost for the same reason), so a 2 GB cache is 256 8-MB atoms.
package cache

import (
	"fmt"
	"time"

	"jaws/internal/field"
	"jaws/internal/store"
)

// Policy decides which resident atom to evict. Implementations are not
// safe for concurrent use; the cache serializes calls.
type Policy interface {
	// Name identifies the policy in reports: "lru-k", "slru" or "urc".
	Name() string
	// OnHit notes an access to a resident atom.
	OnHit(id store.AtomID)
	// OnInsert notes that id became resident.
	OnInsert(id store.AtomID)
	// Victim selects the resident atom to evict. It is only called when
	// the cache is full and must return a currently resident atom.
	Victim() store.AtomID
	// OnEvict notes that id was evicted.
	OnEvict(id store.AtomID)
	// EndRun marks the end of one workload run (r consecutive queries);
	// SLRU performs its promotions here. Other policies ignore it.
	EndRun()
}

// Stats accumulates cache effectiveness counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	// Corruptions counts resident entries dropped by Corrupt because
	// their payload was found damaged; the caller's next Get of the atom
	// misses, so it re-reads the atom from disk.
	Corruptions int64
	// PolicyTime is real (wall-clock) time spent inside policy decisions;
	// it backs Table I's overhead-per-query column.
	PolicyTime time.Duration
}

// HitRatio returns hits/(hits+misses), or 0 before any access.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Observer receives per-atom cache events for tracing. Any hook may be
// nil; hooks run synchronously on the accessing goroutine.
type Observer struct {
	Hit   func(id store.AtomID)
	Miss  func(id store.AtomID)
	Evict func(id store.AtomID)
}

// Cache is an atom cache with a pluggable replacement policy. Its index
// holds the resident atoms' handles under their one-word keys
// (store.AtomID.Key) and grows with the residents: a cache costs the atoms
// it holds, not the capacity it could hold (DESIGN.md §6).
type Cache struct {
	capacity int
	policy   Policy
	entries  map[uint64]*field.Atom
	stats    Stats
	obs      Observer
	// version counts residency mutations: it advances whenever the set of
	// resident atoms changes (insert, evict, corruption drop, flush).
	// Schedulers use it to memoize φ(i)-dependent utility values between
	// decisions (sched.ResidencyVersioned).
	version uint64
}

// New creates a cache holding up to capacity atoms, reserving nothing for
// them. capacity must be positive and policy non-nil.
func New(capacity int, policy Policy) *Cache {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: capacity must be positive, got %d", capacity))
	}
	if policy == nil {
		panic("cache: nil policy")
	}
	return &Cache{
		capacity: capacity,
		policy:   policy,
		entries:  make(map[uint64]*field.Atom),
	}
}

// SetObserver installs (or, with the zero Observer, removes) the event
// hooks. The cache serializes calls to the hooks with its own accesses.
func (c *Cache) SetObserver(o Observer) { c.obs = o }

// lookup returns id's index key and its resident atom. An ID the key
// cannot hold — store.Open never hands one out — is not resident, whatever
// its key collides with.
func (c *Cache) lookup(id store.AtomID) (k uint64, a *field.Atom, ok bool) {
	k = id.Key()
	if store.FromKey(k) != id {
		return k, nil, false
	}
	a, ok = c.entries[k]
	return k, a, ok
}

// Get returns the cached atom for id, if resident.
func (c *Cache) Get(id store.AtomID) (*field.Atom, bool) {
	_, a, ok := c.lookup(id)
	if ok {
		c.stats.Hits++
		start := time.Now()
		c.policy.OnHit(id)
		c.stats.PolicyTime += time.Since(start)
		if c.obs.Hit != nil {
			c.obs.Hit(id)
		}
	} else {
		c.stats.Misses++
		if c.obs.Miss != nil {
			c.obs.Miss(id)
		}
	}
	return a, ok
}

// Contains reports residency without touching the policy or stats — the
// scheduler uses this for the φ(i) term of the workload throughput metric
// (Eq. 1), which must not perturb recency state.
func (c *Cache) Contains(id store.AtomID) bool {
	_, _, ok := c.lookup(id)
	return ok
}

// Corrupt drops a resident id whose payload was found damaged (the
// checksum pass a real buffer manager performs on a hit) and hands back
// its atom, as Put hands back what it displaces, so the caller that owns
// the atoms' memory can reuse it; nil when id is not resident. The next
// Get of id misses.
func (c *Cache) Corrupt(id store.AtomID) *field.Atom {
	k, a, ok := c.lookup(id)
	if !ok {
		return nil
	}
	delete(c.entries, k)
	c.version++
	c.policy.OnEvict(id)
	c.stats.Corruptions++
	return a
}

// Put inserts id, evicting per policy if the cache is full. Inserting an
// already-resident atom just refreshes its handle and recency. It returns
// the atom the insertion pushed out — the evicted victim, or the handle a
// same-id Put replaced; nil when there was none — so the caller that owns
// the atoms' memory can reuse it. id must be an atom a store can hold.
func (c *Cache) Put(id store.AtomID, a *field.Atom) (displaced *field.Atom) {
	k := id.Key()
	if store.FromKey(k) != id {
		panic(fmt.Sprintf("cache: atom (step %d, code %d) does not pack into a key", id.Step, id.Code))
	}
	if old, ok := c.entries[k]; ok {
		c.entries[k] = a
		start := time.Now()
		c.policy.OnHit(id)
		c.stats.PolicyTime += time.Since(start)
		return old
	}
	start := time.Now()
	// Residency never exceeds the capacity, so one eviction makes room.
	if len(c.entries) >= c.capacity {
		victim := c.policy.Victim()
		vk := victim.Key()
		old, ok := c.entries[vk]
		if !ok {
			panic(fmt.Sprintf("cache: policy %s evicted non-resident atom %v", c.policy.Name(), victim))
		}
		displaced = old
		delete(c.entries, vk)
		c.version++
		c.policy.OnEvict(victim)
		c.stats.Evictions++
		if c.obs.Evict != nil {
			c.obs.Evict(victim)
		}
	}
	c.entries[k] = a
	c.version++
	c.policy.OnInsert(id)
	c.stats.PolicyTime += time.Since(start)
	return displaced
}

// EndRun forwards the end-of-run signal to the policy.
func (c *Cache) EndRun() {
	start := time.Now()
	c.policy.EndRun()
	c.stats.PolicyTime += time.Since(start)
}

// Len reports the number of resident atoms.
func (c *Cache) Len() int { return len(c.entries) }

// Version returns the residency mutation counter: it changes whenever the
// set of resident atoms may have changed, so an unchanged value proves
// every Contains answer (and thus every φ(i) term) is unchanged too.
func (c *Cache) Version() uint64 { return c.version }

// EachKey calls fn for every resident atom ID, in unspecified order. The
// engine uses this to push scheduler utilities into URC; fn must not
// touch the cache.
func (c *Cache) EachKey(fn func(id store.AtomID)) {
	for k := range c.entries {
		fn(store.FromKey(k))
	}
}

// Capacity reports the configured maximum.
func (c *Cache) Capacity() int { return c.capacity }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the counters (contents stay resident).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Flush evicts everything, appending the dropped atoms to buf for the
// caller that owns their memory, as Put hands back what it displaces. The
// NoShare baseline flushes between queries so that no I/O is shared across
// queries (§VI), mirroring the paper's methodology of flushing the buffer
// pool. Residents go in map iteration order: neither the policy's and the
// observer's eviction callbacks nor the returned atoms have a defined
// order.
func (c *Cache) Flush(buf []*field.Atom) []*field.Atom {
	for k, a := range c.entries {
		buf = append(buf, a)
		delete(c.entries, k)
		c.version++
		id := store.FromKey(k)
		c.policy.OnEvict(id)
		c.stats.Evictions++
		if c.obs.Evict != nil {
			c.obs.Evict(id)
		}
	}
	return buf
}

// Policy exposes the policy for scheduler coordination (URC needs utility
// updates pushed into it).
func (c *Cache) Policy() Policy { return c.policy }
