package cache

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"jaws/internal/field"
	"jaws/internal/oracle/difftest"
	"jaws/internal/store"
)

// refLRUK is LRU-K as this package first shipped it, on two maps: touch
// builds a fresh history slice on every uncorrelated reference, gc ranges
// over the history map, and Victim scans the resident set for the minimum
// of the victim order. It is the reference the differential tests below
// replay op logs against: the production policy keeps the same history on
// slabs and finds the same victim at the root of a heap.
type refLRUK struct {
	k          int
	correlated int64
	retain     int64
	clock      int64
	hist       map[store.AtomID][]int64
	resident   map[store.AtomID]bool
}

func newRefLRUK(k int, correlated int64) *refLRUK {
	if k <= 0 {
		k = 2
	}
	return &refLRUK{
		k:          k,
		correlated: correlated,
		retain:     DefaultRetain,
		hist:       make(map[store.AtomID][]int64),
		resident:   make(map[store.AtomID]bool),
	}
}

func (p *refLRUK) Name() string { return "lru-k" }

func (p *refLRUK) touch(id store.AtomID) {
	p.clock++
	h := p.hist[id]
	if len(h) > 0 && p.correlated > 0 && p.clock-h[0] <= p.correlated {
		h[0] = p.clock
		return
	}
	h = append([]int64{p.clock}, h...)
	if len(h) > p.k {
		h = h[:p.k]
	}
	p.hist[id] = h
	if p.clock%512 == 0 {
		p.gc()
	}
}

func (p *refLRUK) gc() {
	for id, h := range p.hist {
		if !p.resident[id] && p.clock-h[0] > p.retain {
			delete(p.hist, id)
		}
	}
}

func (p *refLRUK) OnHit(id store.AtomID) { p.touch(id) }

func (p *refLRUK) OnInsert(id store.AtomID) {
	p.resident[id] = true
	p.touch(id)
}

func (p *refLRUK) Victim() store.AtomID {
	var victim store.AtomID
	victimKth := int64(1<<62 - 1)
	victimShort := false
	first := true
	for id := range p.resident {
		h := p.hist[id]
		short := len(h) < p.k
		var kth int64
		if short {
			kth = h[len(h)-1]
		} else {
			kth = h[p.k-1]
		}
		better := false
		switch {
		case first:
			better = true
		case short && !victimShort:
			better = true
		case short == victimShort && kth < victimKth:
			better = true
		case short == victimShort && kth == victimKth && id.Key() < victim.Key():
			better = true
		}
		if better {
			victim, victimKth, victimShort, first = id, kth, short, false
		}
	}
	return victim
}

func (p *refLRUK) OnEvict(id store.AtomID) { delete(p.resident, id) }
func (p *refLRUK) EndRun()                 {}

// lrukPair drives the production LRU-K and a reference policy through one
// op log, each under a cache of its own, and holds them to each other. The
// reference is refLRUK, or the list LRU when LRU-K(1) has no correlated
// window.
type lrukPair struct {
	got        *LRUK
	want       Policy
	cg, cw     *Cache
	gotEvicted []store.AtomID
	refEvicted []store.AtomID
	slotsTaken int // atoms that came to the policy without history
}

// lookup is the engine's read: a Get, and a Put on a miss.
func (d *lrukPair) lookup(a store.AtomID) error {
	_, okg := d.cg.Get(a)
	_, okw := d.cw.Get(a)
	if okg != okw {
		return fmt.Errorf("Get(%v) hit=%v, reference hit=%v", a, okg, okw)
	}
	if !okg {
		d.put(a)
	}
	return nil
}

func (d *lrukPair) put(a store.AtomID) {
	if _, had := d.got.slot[a.Key()]; !had {
		d.slotsTaken++
	}
	d.cg.Put(a, nil)
	d.cw.Put(a, nil)
}

// drop finds a corrupt, as the engine does before its Get: a resident a
// leaves both caches through OnEvict alone, with no Victim call before it,
// and the Get misses.
func (d *lrukPair) drop(a store.AtomID) error {
	d.cg.Corrupt(a)
	d.cw.Corrupt(a)
	_, okg := d.cg.Get(a)
	_, okw := d.cw.Get(a)
	if okg || okw {
		return fmt.Errorf("Get(%v) of a corrupt atom hit: %v, reference %v", a, okg, okw)
	}
	return nil
}

// flush empties both caches. Flush evicts in map order, so only the set of
// evicted atoms is comparable.
func (d *lrukPair) flush() {
	d.cg.Flush(nil)
	d.cw.Flush(nil)
	byKey := func(a, b store.AtomID) int { return cmp.Compare(a.Key(), b.Key()) }
	slices.SortFunc(d.gotEvicted, byKey)
	slices.SortFunc(d.refEvicted, byKey)
}

// check compares what the last op evicted and verifies the index.
func (d *lrukPair) check() error {
	if !slices.Equal(d.gotEvicted, d.refEvicted) {
		return fmt.Errorf("evicted %v, reference %v", d.gotEvicted, d.refEvicted)
	}
	d.gotEvicted, d.refEvicted = d.gotEvicted[:0], d.refEvicted[:0]
	return d.got.checkIndex()
}

// checkHistory compares every atom's retained references with refLRUK's;
// the list LRU keeps none.
func (d *lrukPair) checkHistory() error {
	ref, ok := d.want.(*refLRUK)
	if !ok {
		return nil
	}
	if len(d.got.slot) != len(ref.hist) {
		return fmt.Errorf("history of %d atoms, reference %d", len(d.got.slot), len(ref.hist))
	}
	for a, h := range ref.hist {
		if got := d.got.history(a); !slices.Equal(got, h) {
			return fmt.Errorf("history of %v is %v, reference %v", a, got, h)
		}
	}
	return nil
}

// history returns a's references, most recent first; nil when it has none.
func (p *LRUK) history(a store.AtomID) []int64 {
	s, ok := p.slot[a.Key()]
	if !ok {
		return nil
	}
	return p.hist[int(s)*p.k:][:p.recs[s].n]
}

// checkIndex verifies the tables against each other: the slot map and the
// free list partition the slab, the heap holds exactly the slots that say
// they are resident, each where it says it is, and no entry is less than
// its parent.
func (p *LRUK) checkIndex() error {
	if len(p.hist) != len(p.recs)*p.k {
		return fmt.Errorf("history slab of %d for %d slots of stride %d", len(p.hist), len(p.recs), p.k)
	}
	if len(p.slot)+len(p.free) != len(p.recs) {
		return fmt.Errorf("%d mapped + %d free slots, slab of %d", len(p.slot), len(p.free), len(p.recs))
	}
	for k, s := range p.slot {
		if r := p.recs[s]; r.key != k || r.n < 1 || int(r.n) > p.k {
			return fmt.Errorf("slot %d mapped from %v holds %+v", s, store.FromKey(k), r)
		}
	}
	seen := make([]bool, len(p.recs))
	for _, s := range p.free {
		if r := p.recs[s]; r.n != 0 || r.pos >= 0 || seen[s] {
			return fmt.Errorf("free slot %d holds %+v (listed twice: %v)", s, r, seen[s])
		}
		seen[s] = true
	}
	resident := 0
	for s, r := range p.recs {
		if r.pos < 0 {
			continue
		}
		resident++
		if int(r.pos) >= len(p.heap) || p.heap[r.pos] != (lrukEntry{rank: p.rank(int32(s)), slot: int32(s)}) {
			return fmt.Errorf("slot %d of rank %d claims heap index %d of %v", s, p.rank(int32(s)), r.pos, p.heap)
		}
	}
	if resident != len(p.heap) {
		return fmt.Errorf("%d resident slots, heap of %d", resident, len(p.heap))
	}
	for i := 1; i < len(p.heap); i++ {
		if p.less(p.heap[i], p.heap[(i-1)/2]) {
			return fmt.Errorf("heap entry %d (%+v) is less than its parent", i, p.heap[i])
		}
	}
	return nil
}

// replay decodes l as an op log through an lrukPair. Its header holds the
// capacity (1 to 64), the retention (DefaultRetain or 16 ticks), then 0, k
// (1 to 3) and the correlated window (0 or 3) for LRU-K against refLRUK,
// or 1 for LRU-K(1) without a window against the list LRU. Each op is two
// bytes, what and which atom: a lookup, an insert of a new or resident
// atom, a corruption drop or a flush. After every op both caches must have
// evicted the same atoms in the same order, and LRU-K's index must hold;
// after every 64th and the last, every history must be refLRUK's. replay
// reports whether atoms took slots that a sweep had vacated.
func replay(t difftest.TB, l *difftest.Log) (slotsReused bool) {
	capacity, retain := 1+l.Intn(64), []int64{DefaultRetain, 16}[l.Intn(2)]
	got, want := NewLRUK(1, 0), Policy(NewLRU())
	if l.Intn(2) == 0 {
		k, correlated := 1+l.Intn(3), 3*int64(l.Intn(2))
		ref := newRefLRUK(k, correlated)
		got, want, ref.retain = NewLRUK(k, correlated), ref, retain
	}
	got.retain = retain
	d := &lrukPair{got: got, want: want, cg: New(capacity, got), cw: New(capacity, want)}
	d.cg.SetObserver(Observer{Evict: func(id store.AtomID) { d.gotEvicted = append(d.gotEvicted, id) }})
	d.cw.SetObserver(Observer{Evict: func(id store.AtomID) { d.refEvicted = append(d.refEvicted, id) }})
	for op := 0; l.More(); op++ {
		r, a := l.Intn(100), atom(l.Byte())
		var err error
		switch {
		case r < 55:
			err = d.lookup(a)
		case r < 98:
			d.put(a)
		case r < 99:
			err = d.drop(a)
		default:
			d.flush()
		}
		if err == nil {
			err = d.check()
		}
		if err == nil && op%64 == 63 {
			err = d.checkHistory()
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	if err := d.checkHistory(); err != nil {
		t.Fatalf("end of log: %v", err)
	}
	return d.slotsTaken > len(d.got.recs)
}

// atom decodes one byte into a skewed key space: a hot set of 16 atoms that
// accumulates full histories (136 bytes of 256), a cold tail of 120 that
// comes back after eviction.
func atom(b byte) store.AtomID {
	if b < 136 {
		return id(int(b)%2, int(b)/2%8)
	}
	b -= 136
	return id(int(b)%3, int(b)/3)
}

// Random op logs, long enough for the retained-history sweep to run, must
// evict the same atoms in the same order under both policies, and leave
// the same history behind, for k of 1, 2 and 3, with and without the
// correlated-reference window, at capacities below, at and above the hot
// set. Under the default retention no history of the 136 atoms ever ages
// out; the runs with a retention of 16 ticks are the ones whose sweeps
// free slots that later atoms reuse.
func TestLRUKMatchesReferenceOnRandomOpLogs(t *testing.T) {
	for _, capacity := range []int{1, 8, 64} {
		for ri, retain := range []int64{DefaultRetain, 16} {
			// Five logs for the configuration the test began with, two for
			// each it grew to.
			prefix, seeds := "", 5
			if capacity != 8 || retain != DefaultRetain {
				prefix, seeds = fmt.Sprintf("cap=%d/retain=%d/", capacity, retain), 2
			}
			for _, k := range []int{1, 2, 3} {
				for _, correlated := range []int64{0, 3} {
					ok := t.Run(fmt.Sprintf("%sk=%d/correlated=%d", prefix, k, correlated), func(t *testing.T) {
						head := []byte{byte(capacity - 1), byte(ri), 0, byte(k - 1), byte(correlated / 3)}
						wrong := 0
						difftest.Seeds(t, difftest.Gen{First: 1, N: seeds, Head: head, Min: 12000}, func(t difftest.TB, l *difftest.Log) {
							if replay(t, l) != (retain == 16) {
								wrong++
							}
						})
						if wrong > 0 && !t.Failed() {
							t.Errorf("in %d of %d logs atoms did not take vacated slots %v: only a retention of 16 frees them", wrong, seeds, retain == 16)
						}
					})
					if !ok {
						return // one shrunk failure is enough
					}
				}
			}
		}
	}
}

// FuzzLRUKOps replays fuzzed op logs through the same decoder.
func FuzzLRUKOps(f *testing.F) {
	// LRU-K(3) at capacity 64: hits and misses of hot atoms.
	f.Add([]byte{63, 0, 0, 2, 0, 0, 1, 0, 2, 60, 1, 0, 3, 60, 2, 0, 1})
	// LRU-K(2) with the correlated window at capacity 8, retention 16: a
	// reference inside the window, a corruption drop, a flush.
	f.Add([]byte{7, 1, 0, 1, 1, 0, 5, 0, 5, 60, 6, 98, 5, 0, 5, 99, 0, 0, 6})
	// LRU-K(1) with the window at capacity 8, retention 16, long enough for
	// sweeps, so that slots are freed and taken again.
	long := []byte{7, 1, 0, 0, 1}
	rng := rand.New(rand.NewSource(20))
	for len(long) < 4096 {
		long = append(long, byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	f.Add(long)
	// LRU-K(1) against the list LRU at capacity 2.
	f.Add([]byte{1, 0, 1, 0, 1, 0, 2, 0, 4, 60, 1, 0, 3, 60, 2, 0, 1})
	f.Fuzz(func(t *testing.T, log []byte) {
		replay(t, difftest.NewLog(log))
	})
}

func TestLRUKHitDoesNotAllocate(t *testing.T) {
	for _, correlated := range []int64{0, 3} {
		c := New(16, NewLRUK(2, correlated))
		for i := 0; i < 16; i++ {
			c.Put(id(0, i), new(field.Atom))
			c.Get(id(0, i)) // the second reference: the history is at full length
		}
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			c.Get(id(0, i%16))
			i++
		})
		if allocs != 0 {
			t.Errorf("correlated=%d: Cache.Get hit allocates %v times, want 0", correlated, allocs)
		}
	}
}

// TestLRUKMissZeroAllocs pins the policy's share of a miss at capacity —
// Victim, OnEvict, OnInsert — to no allocation on a warmed policy, both for
// atoms that return while their history is retained (the slot is found) and
// for atoms never seen before (a slot the sweep vacated is taken, the sweep
// itself included: the run is several sweeps long).
func TestLRUKMissZeroAllocs(t *testing.T) {
	const resident = 64
	for _, k := range []int{1, 2, 3} {
		for _, fresh := range []bool{false, true} {
			p := NewLRUK(k, 0)
			next := 0
			miss := func() {
				a := id(0, next%(2*resident))
				if fresh {
					a = id(1+next>>20, next&(1<<20-1))
				}
				next++
				if len(p.heap) >= resident {
					p.OnEvict(p.Victim())
				}
				p.OnInsert(a)
			}
			// Past the retention period several times over, so the slab, the
			// free list and the map have reached their steady size.
			for range 4 * DefaultRetain {
				miss()
			}
			if n := testing.AllocsPerRun(2000, miss); n != 0 {
				t.Errorf("k=%d, never-seen atoms %v: a miss allocates %v times, want 0", k, fresh, n)
			}
			if err := p.checkIndex(); err != nil {
				t.Fatal(err)
			}
			// Residents, a retention period of history, and a sweep interval.
			if bound := resident + DefaultRetain + 512; len(p.recs) > bound {
				t.Errorf("k=%d: slab of %d slots after %d atoms, want at most %d: vacated slots are not reused", k, len(p.recs), next, bound)
			}
		}
	}
}

// BenchmarkLRUKMiss is the policy's share of a miss at capacity — Victim,
// OnEvict, OnInsert of an atom drawn at random from a key space four times
// the resident set, so most return with retained history — on the index and
// on the reference's scan, over resident sets up to 16 times the paper's
// pool: the scan grows with the residents, the index with their logarithm.
func BenchmarkLRUKMiss(b *testing.B) {
	impls := []struct {
		name string
		new  func() Policy
	}{
		{"index", func() Policy { return NewLRUK(2, 0) }},
		{"ref", func() Policy { return newRefLRUK(2, 0) }},
	}
	for _, impl := range impls {
		for _, residents := range []int{64, 256, 1024, 4096} {
			b.Run(fmt.Sprintf("%s/residents=%d", impl.name, residents), func(b *testing.B) {
				p := impl.new()
				in := make([]bool, 4*residents)
				rng := rand.New(rand.NewSource(1))
				n := 0
				miss := func() {
					code := rng.Intn(len(in))
					for in[code] {
						code = (code + 1) % len(in)
					}
					if n >= residents {
						v := p.Victim()
						p.OnEvict(v)
						in[v.Code] = false
						n--
					}
					p.OnInsert(id(0, code))
					in[code] = true
					n++
				}
				for range 3 * len(in) {
					miss()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					miss()
				}
			})
		}
	}
}
