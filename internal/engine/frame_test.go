package engine

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"jaws/internal/cache"
	"jaws/internal/fault"
	"jaws/internal/field"
	"jaws/internal/geom"
	"jaws/internal/job"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/store"
)

// frameStore opens the tests' store (testStore is the 4³, no-halo one) with
// a chosen sample side and halo.
func frameStore(t testing.TB, side, ghost int) *store.Store {
	t.Helper()
	s, err := store.Open(store.Config{
		Space:       geom.Space{GridSide: 128, AtomSide: 32}, // 64 atoms/step
		Steps:       4,
		SampleSide:  side,
		SampleGhost: ghost,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// freshValues recomputes what a query must return from atoms the engine
// never saw: a Store.Read of its own per atom and field.Interpolate, for a
// derivative query under the forward stencil summed in chain order.
type freshValues struct {
	t     testing.TB
	s     *store.Store
	atoms map[store.AtomID]*field.Atom
}

func (f *freshValues) atom(id store.AtomID) *field.Atom {
	a, ok := f.atoms[id]
	if !ok {
		var err error
		if a, _, err = f.s.Read(id); err != nil {
			f.t.Fatal(err)
		}
		f.atoms[id] = a
	}
	return a
}

func (f *freshValues) want(q *query.Query, p geom3) [field.Components]float64 {
	space := f.s.Space()
	pos := geom.Position{X: p.X, Y: p.Y, Z: p.Z}
	ac := space.AtomOf(pos)
	k := q.ChainLen()
	if k == 1 {
		return field.Interpolate(q.Kernel, f.atom(store.AtomID{Step: q.Step, Code: ac.Code()}), space, ac, pos)
	}
	var val [field.Components]float64
	for j, w := range query.DerivWeights(k) {
		v := field.Interpolate(q.Kernel, f.atom(store.AtomID{Step: q.Step + j, Code: ac.Code()}), space, ac, pos)
		for c := range val {
			val[c] += float64(w * v[c])
		}
	}
	for c := range val {
		val[c] /= query.StepDT
	}
	return val
}

func (f *freshValues) check(results []*QueryResult) {
	f.t.Helper()
	for _, r := range results {
		if len(r.Positions) != len(r.Query.Points) {
			f.t.Fatalf("query %d: %d positions for %d points", r.Query.ID, len(r.Positions), len(r.Query.Points))
		}
		for _, ps := range r.Positions {
			if want := f.want(r.Query, ps.Pos); ps.Val != want {
				f.t.Fatalf("query %d at %+v: %v, recomputed %v", r.Query.ID, ps.Pos, ps.Val, want)
			}
		}
	}
}

// cornerPoints returns n positions of atom (i,j,k) close to its high
// corner, so a Lagrange stencil reaches into the seven atoms beyond it.
func cornerPoints(s *store.Store, i, j, k uint32, n int) []geom.Position {
	sp := s.Space()
	atomLen := float64(sp.AtomSide) * sp.VoxelSize()
	pts := make([]geom.Position, n)
	for p := range pts {
		f := 1 - (float64(p)+0.5)/float64(n)*sp.VoxelSize()/atomLen
		pts[p] = geom.Position{X: (float64(i) + f) * atomLen, Y: (float64(j) + f) * atomLen, Z: (float64(k) + f) * atomLen}
	}
	return pts
}

// centrePoints returns n positions around the centre of atom (i,j,k): no
// stencil leaves the atom.
func centrePoints(s *store.Store, i, j, k uint32, n int) []geom.Position {
	sp := s.Space()
	atomLen := float64(sp.AtomSide) * sp.VoxelSize()
	pts := make([]geom.Position, n)
	for p := range pts {
		f := 0.5 + ((float64(p)+0.5)/float64(n)-0.5)*sp.VoxelSize()/atomLen
		pts[p] = geom.Position{X: (float64(i) + f) * atomLen, Y: (float64(j) + 0.5) * atomLen, Z: (float64(k) + 0.5) * atomLen}
	}
	return pts
}

// injector builds node 0's fault injector for spec.
func injector(t testing.TB, spec string) *fault.Injector {
	t.Helper()
	fs, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return fault.New(fs, 1, 0)
}

// decide dispatches the queries and executes decisions until none is
// pending, returning how many it took.
func decide(t testing.TB, e *Engine, qs ...*query.Query) int {
	t.Helper()
	for _, q := range qs {
		e.dispatch(q)
	}
	n := 0
	for ; e.cfg.Sched.Pending() > 0; n++ {
		if err := e.execute(e.cfg.Sched.NextBatch(e.clock.Now())); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// oneDecision drains the scheduler into a single decision put together by
// hand, in Morton order as JAWS executes: JAWS itself need not put all that
// is pending into one.
func oneDecision(e *Engine) []sched.Batch {
	var decision []sched.Batch
	for e.cfg.Sched.Pending() > 0 {
		for _, b := range e.cfg.Sched.NextBatch(e.clock.Now()) {
			decision = append(decision, sched.Batch{Atom: b.Atom, SubQueries: slices.Clone(b.SubQueries)})
		}
	}
	slices.SortFunc(decision, func(x, y sched.Batch) int { return cmp.Compare(x.Atom.Key(), y.Atom.Key()) })
	return decision
}

// TestEvictedFrameNotReusedWithinDecision is the frame lifecycle's safety
// rule: the rows of an evicted atom are reusable only once the decision
// that evicted it has ended.
func TestEvictedFrameNotReusedWithinDecision(t *testing.T) {
	// The exact hazard. A is resident and filled; one decision executes
	// batches B then A, both fetched up front. B's footprint reads then
	// evict first B and then A from the two-atom cache, and only after
	// them is B filled — into A's rows, were those free already, which
	// A's batch would then evaluate on.
	t.Run("hazard", func(t *testing.T) {
		s := frameStore(t, 4, 0)
		c := cache.New(2, cache.NewLRUK(1, 0))
		e := newEngine(t, s, sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 8, Resident: c.Contains}), false, func(cfg *Config) {
			cfg.Cache = c
			cfg.Compute = true
			cfg.KeepResults = true
		})
		idA := store.AtomID{Step: 1, Code: geom.AtomCoord{I: 2, J: 2, K: 2}.Code()}
		decide(t, e, &query.Query{ID: 1, JobID: 1, Step: 1, Points: centrePoints(s, 2, 2, 2, 20), Kernel: field.KernelLag4})
		oldA, ok := c.Get(idA)
		if !ok || heldUnits(s.Space(), oldA) == 0 || c.Len() != 1 {
			t.Fatalf("set-up: A resident %v, %d atoms cached; want A filled and alone", ok, c.Len())
		}
		// JAWS would split the two atoms (A, resident, outranks B), so the
		// decision is put together by hand, in Morton order as JAWS executes.
		pts := append(cornerPoints(s, 0, 0, 0, 20), centrePoints(s, 2, 2, 2, 20)...)
		e.dispatch(&query.Query{ID: 2, JobID: 2, Step: 1, Points: pts, Kernel: field.KernelLag4})
		decision := oneDecision(e)
		if len(decision) != 2 || decision[1].Atom != idA {
			t.Fatalf("decision %v, want B then A", decision)
		}
		if err := e.execute(decision); err != nil {
			t.Fatal(err)
		}
		if c.Contains(idA) || heldUnits(s.Space(), oldA) != 0 {
			t.Fatalf("A resident %v, %d half rows held: the decision was meant to evict A and then free its units", c.Contains(idA), heldUnits(s.Space(), oldA))
		}
		(&freshValues{t: t, s: s, atoms: map[store.AtomID]*field.Atom{}}).check(e.report.Results)
	})

	// The same rule under everything that moves frames at once: eight
	// primaries per decision against two cache slots, overlapping box
	// queries whose sub-queries share batches, derivative chains, a same-id
	// re-Put between decisions, and the cache flushed after each one.
	for _, ghost := range []int{0, 2} {
		for _, flush := range []bool{false, true} {
			t.Run(fmt.Sprintf("ghost=%d,flush=%v", ghost, flush), func(t *testing.T) {
				s := frameStore(t, 4, ghost)
				space := s.Space()
				c := cache.New(2, cache.NewLRUK(2, 0))
				var e *Engine
				decisions := 0
				e = newEngine(t, s, sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 8, Resident: c.Contains}), false, func(cfg *Config) {
					cfg.Cache = c
					cfg.Compute = true
					cfg.KeepResults = true
					cfg.FlushPerDecision = flush
					cfg.OnDecision = func(_ time.Duration, batches []sched.Batch) {
						// Every other decision, replace a resident atom under
						// its own id: the replaced frame retires like a victim.
						if decisions++; decisions%2 == 0 {
							return
						}
						if id := batches[0].Atom; c.Contains(id) {
							a, _, err := s.Read(id)
							if err != nil {
								t.Error(err)
								return
							}
							e.putAtom(id, a)
						}
					}
				})
				rng := rand.New(rand.NewSource(int64(5 + ghost)))
				var jobs []*job.Job
				add := func(q *query.Query, deriv int) {
					q.JobID, q.DerivSteps = int64(q.ID), deriv
					jobs = append(jobs, &job.Job{ID: q.JobID, User: 1, Type: job.Batched, Queries: []*query.Query{q}})
				}
				side := float64(float64(space.AtomSide) * space.VoxelSize())
				for i := 0; i < 6; i++ {
					// Boxes of 2×2×2 atoms' extent at offsets inside one atom, so
					// they overlap and their sub-queries share batches.
					lo := geom.Position{X: float64(rng.Float64() * side), Y: float64(rng.Float64() * side), Z: float64(rng.Float64() * side)}
					hi := geom.Position{X: lo.X + 2*side, Y: lo.Y + 2*side, Z: lo.Z + 2*side}
					q, err := query.BoxQuery(query.ID(i+1), space, 1, lo, hi, 5, field.KernelLag4)
					if err != nil {
						t.Fatal(err)
					}
					deriv := 0
					if i%2 == 1 {
						q.Step, deriv = 0, 3
					}
					add(q, deriv)
				}
				add(&query.Query{ID: 7, Step: 2, Points: scatter(rng, 600), Kernel: field.KernelLag6}, 0)
				add(&query.Query{ID: 8, Step: 1, Points: scatter(rng, 300), Kernel: field.KernelLag4}, 3)
				rep, err := e.Run(jobs)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Results) != len(jobs) {
					t.Fatalf("%d results for %d queries", len(rep.Results), len(jobs))
				}
				if rep.CacheStats.Evictions == 0 || e.fills == 0 {
					t.Fatalf("%d evictions, %d fills: the run moved no frames", rep.CacheStats.Evictions, e.fills)
				}
				if len(e.freeAtoms) > c.Capacity() || len(e.retired) != 0 {
					t.Fatalf("%d free handles for a cache of %d, %d atoms still retired", len(e.freeAtoms), c.Capacity(), len(e.retired))
				}
				(&freshValues{t: t, s: s, atoms: map[store.AtomID]*field.Atom{}}).check(rep.Results)
			})
		}
	}
}

// TestFlushRecyclesFrames: NoShare flushes the cache after every decision,
// and what it flushes retires like an evicted atom, so the next decision's
// fills reuse those rows instead of allocating their own. The
// same goes for a resident atom found corrupt.
func TestFlushRecyclesFrames(t *testing.T) {
	const side = 8
	bufBytes := uint64(side * side * side * field.Components * 8)
	for _, corrupt := range []bool{false, true} {
		s := frameStore(t, side, 0)
		c := cache.New(8, cache.NewLRUK(2, 0))
		var e *Engine
		var first runtime.MemStats
		var firstFills int64
		decisions := 0
		e = newEngine(t, s, sched.NewNoShare(), false, func(cfg *Config) {
			cfg.Cache = c
			cfg.Compute = true
			cfg.FlushPerDecision = !corrupt
			if corrupt {
				// Every hit fails verification: the run's only frame turnover
				// is the corruption drop (one atom, a cache of 8: nothing is
				// evicted).
				cfg.Fault = injector(t, "corrupt:p=1")
			}
			cfg.OnDecision = func(time.Duration, []sched.Batch) {
				// Called before a decision executes: the second call is the
				// first decision's end.
				if decisions++; decisions == 2 {
					runtime.ReadMemStats(&first)
					firstFills = e.fills
				}
			}
		})
		// Queries on one atom, one decision each.
		j := &job.Job{ID: 1, User: 1, Type: job.Batched}
		for i := 0; i < 40; i++ {
			j.Queries = append(j.Queries, &query.Query{ID: query.ID(i + 1), JobID: 1, Seq: i, Step: 1,
				Points: centrePoints(s, 1, 1, 1, 4), Kernel: field.KernelLag4, Arrival: time.Duration(i) * time.Second})
		}
		rep, err := e.Run([]*job.Job{j})
		if err != nil {
			t.Fatal(err)
		}
		var last runtime.MemStats
		runtime.ReadMemStats(&last)
		fills := uint64(e.fills - firstFills)
		if fills < 30 || rep.CacheStats.Evictions+rep.CacheStats.Corruptions < 30 {
			t.Fatalf("corrupt=%v: %d fills, %d evictions, %d corruptions after the first decision: the run did not turn frames over",
				corrupt, fills, rep.CacheStats.Evictions, rep.CacheStats.Corruptions)
		}
		if buffers := (last.TotalAlloc - first.TotalAlloc) / bufBytes; buffers*4 > fills {
			t.Errorf("corrupt=%v: %d fills after the first decision allocated %d B, room for %d whole atoms' samples; want the dropped frames' rows reused",
				corrupt, fills, last.TotalAlloc-first.TotalAlloc, buffers)
		}
	}
}

// TestComputeOffNeverFills pins laziness: a run that evaluates nothing
// synthesizes nothing, and on a run that does evaluate, an atom read only
// for a neighbour's stencil footprint has no samples until it is itself a
// batch's primary — so fills stay below store reads.
func TestComputeOffNeverFills(t *testing.T) {
	unfilled := func(t *testing.T, c *cache.Cache, space geom.Space) (resident, filled int) {
		t.Helper()
		var ids []store.AtomID
		c.EachKey(func(id store.AtomID) { ids = append(ids, id) })
		for _, id := range ids {
			if v, _ := c.Get(id); heldUnits(space, v) != 0 {
				filled++
			}
		}
		return len(ids), filled
	}

	t.Run("replay-shaped", func(t *testing.T) {
		// The paper's experiment in small: JAWS over many queries against a
		// cache a fraction of the store, Compute off.
		s := testStore(t)
		c := cache.New(16, cache.NewLRUK(2, 0))
		e := newEngine(t, s, sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 8, Resident: c.Contains}), false, func(cfg *Config) {
			cfg.Cache = c
		})
		rng := rand.New(rand.NewSource(9))
		var jobs []*job.Job
		for i := int64(1); i <= 40; i++ {
			q := &query.Query{ID: query.ID(i), JobID: i, Step: int(i % 4), Points: scatter(rng, 30), Kernel: field.KernelLag4,
				Arrival: time.Duration(i) * 100 * time.Millisecond}
			jobs = append(jobs, &job.Job{ID: i, User: 1, Type: job.Batched, Queries: []*query.Query{q}})
		}
		rep, err := e.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		resident, filled := unfilled(t, c, s.Space())
		if rep.DiskStats.Reads == 0 || resident == 0 {
			t.Fatalf("%d reads, %d resident: nothing to check", rep.DiskStats.Reads, resident)
		}
		if e.fills != 0 || filled != 0 || e.rows.Bytes() != 0 {
			t.Fatalf("Compute off: %d fills, %d resident atoms hold samples, %d B of rows; want none", e.fills, filled, e.rows.Bytes())
		}
	})

	t.Run("footprint-only", func(t *testing.T) {
		s := testStore(t)
		c := cache.New(32, cache.NewLRUK(2, 0))
		e := newEngine(t, s, sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 8, Resident: c.Contains}), false, func(cfg *Config) {
			cfg.Cache = c
			cfg.Compute = true
			cfg.KeepResults = true
		})
		decide(t, e, &query.Query{ID: 1, JobID: 1, Step: 0, Points: cornerPoints(s, 0, 0, 0, 10), Kernel: field.KernelLag4})
		resident, filled := unfilled(t, c, s.Space())
		if resident != 8 || filled != 1 || e.fills != 1 {
			t.Fatalf("%d resident, %d filled, %d fills; want the primary filled and its 7 footprint atoms not", resident, filled, e.fills)
		}
		if reads := s.DiskStats().Reads; e.fills >= reads {
			t.Fatalf("%d fills for %d store reads", e.fills, reads)
		}
		neighbour := store.AtomID{Step: 0, Code: geom.AtomCoord{I: 1, J: 1, K: 1}.Code()}
		v, _ := c.Get(neighbour)
		if heldUnits(s.Space(), v) != 0 {
			t.Fatal("footprint atom filled before it was a primary")
		}
		decide(t, e, &query.Query{ID: 2, JobID: 2, Step: 0, Points: centrePoints(s, 1, 1, 1, 10), Kernel: field.KernelLag4})
		if n := heldUnits(s.Space(), v); n == 0 || e.fills != 2 {
			t.Fatalf("the neighbour as primary: %d half rows held, %d fills; want the resident frame filled in place", n, e.fills)
		}
		(&freshValues{t: t, s: s, atoms: map[store.AtomID]*field.Atom{}}).check(e.report.Results)
	})
}

// TestBatchFillsOnlyItsStencilRows: a batch fills, before it evaluates, the
// samples of its atom that its stencils read and the atom lacks, and no
// more. On an 8³ atom a block is a sample, and a Lag4 stencil is a 4³ cube
// of them: the centre batch's points lie within a quarter sample of one
// another, share samples 2..5 on each axis, and fill 64 of the 512. The
// same batch again fills nothing, and one at the far corner fills the
// samples of its stencils the first did not. Every value equals a fresh
// read's.
func TestBatchFillsOnlyItsStencilRows(t *testing.T) {
	s := frameStore(t, 8, 0)
	c := cache.New(16, cache.NewLRUK(2, 0))
	e := newEngine(t, s, sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 8, Resident: c.Contains}), false, func(cfg *Config) {
		cfg.Cache = c
		cfg.Compute = true
		cfg.KeepResults = true
	})
	space := s.Space()
	ac := geom.AtomCoord{I: 2, J: 2, K: 2}
	id := store.AtomID{Step: 1, Code: ac.Code()}
	all := []geom.Position{space.Center(ac)} // a Lag8 stencil here reads every row
	query := func(n int, pts []geom.Position) *query.Query {
		return &query.Query{ID: query.ID(n), JobID: int64(n), Step: 1, Points: pts, Kernel: field.KernelLag4}
	}
	// Two queries of 200 points each in one batch.
	centre := centrePoints(s, 2, 2, 2, 200)
	if n := decide(t, e, query(1, centre), query(4, centre)); n != 1 {
		t.Fatalf("%d decisions: want one batch", n)
	}
	a, _ := c.Get(id)
	// The stencils' x range, 2..5, crosses the midpoint: each of their 16
	// block rows is held as its two halves.
	if n := count(a.Missing(field.KernelLag8, space, ac, all)); heldUnits(space, a) != 2*4*4 || e.fills != 1 || a.Missing(field.KernelLag4, space, ac, centre) != (field.Blocks{}) || n != 512-4*4*4 {
		t.Fatalf("after the centre batch: %d half rows held, %d fills, %d of 512 samples missing; want one fill of the stencils' 64 alone, in their 32 half rows",
			heldUnits(space, a), e.fills, n)
	}
	decide(t, e, query(2, centre[:10]))
	if e.fills != 1 {
		t.Fatalf("the same rows again: %d fills, want the first alone", e.fills)
	}
	decide(t, e, query(3, cornerPoints(s, 2, 2, 2, 10)))
	// The corner stencils are clamped to samples 4..7 on each axis, which
	// share 2³ with the centre batch's.
	if n := count(a.Missing(field.KernelLag8, space, ac, all)); e.fills != 2 || n != 512-4*4*4-(4*4*4-2*2*2) {
		t.Fatalf("the corner batch: %d fills, %d of 512 samples missing; want a second fill of the corner's 56 new samples", e.fills, n)
	}
	(&freshValues{t: t, s: s, atoms: map[store.AtomID]*field.Atom{}}).check(e.report.Results)
}

// heldUnits is the number of half block rows atom a holds a block of. On
// the tests' atoms, at most 8 samples a side with the halo, a block is a
// sample and a half block row the samples x = 0..3 or 4..7 of a line, and
// a Lag8 stencil at an atom's centre reads every sample, so it misses what
// a does not hold.
func heldUnits(space geom.Space, a *field.Atom) int {
	ac := geom.AtomCoord{}
	miss := a.Missing(field.KernelLag8, space, ac, []geom.Position{space.Center(ac)})
	d := a.Side + 2*a.Ghost
	line := uint64(1)<<d - 1
	n := 0
	for z := 0; z < d; z++ {
		for y := 0; y < d; y++ {
			for _, half := range [2]uint64{0x0f & line, 0xf0 & line} {
				if half != 0 && miss[z]>>(8*y)&half != half {
					n++
				}
			}
		}
	}
	return n
}

// count is the number of blocks in b.
func count(b field.Blocks) int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// TestRecycledHandleServesOnlyItsAtom: an evicted atom's handle is free
// from the end of the decision that evicted it, and the next store read —
// a miss, a prefetch, a retry after a transient fault — overwrites it. What
// is then evaluated on it must be the new atom, bit for bit what a handle
// fresh from Store.Read gives, and nothing of the atom it was.
func TestRecycledHandleServesOnlyItsAtom(t *testing.T) {
	// setup runs three one-atom queries through a cache of two — the third
	// evicts the first — and returns the engine with that one handle free.
	setup := func(t *testing.T, opts ...func(*Config)) (*Engine, *store.Store, *cache.Cache, *field.Atom) {
		s := frameStore(t, 4, 2)
		c := cache.New(2, cache.NewLRUK(2, 0))
		opts = append([]func(*Config){func(cfg *Config) {
			cfg.Cache = c
			cfg.Compute = true
			cfg.KeepResults = true
		}}, opts...)
		e := newEngine(t, s, sched.NewNoShare(), false, opts...)
		for i := uint32(0); i < 3; i++ {
			decide(t, e, &query.Query{ID: query.ID(i + 1), JobID: int64(i + 1), Step: 0, Points: centrePoints(s, i, 1, 1, 10), Kernel: field.KernelLag4})
		}
		if len(e.freeAtoms) != 1 || heldUnits(s.Space(), e.freeAtoms[0]) != 0 || c.Stats().Evictions != 1 {
			t.Fatalf("set-up: %d free handles after %d evictions, want one, released", len(e.freeAtoms), c.Stats().Evictions)
		}
		return e, s, c, e.freeAtoms[0]
	}
	// evaluate runs a query on atom (i,j,k) of the step and checks that the
	// atom sits in handle h and every result of the run against fresh reads.
	evaluate := func(t *testing.T, e *Engine, s *store.Store, c *cache.Cache, h *field.Atom, step int, i, j, k uint32) {
		t.Helper()
		id := store.AtomID{Step: step, Code: geom.AtomCoord{I: i, J: j, K: k}.Code()}
		decide(t, e, &query.Query{ID: 100, JobID: 100, Step: step, Points: centrePoints(s, i, j, k, 10), Kernel: field.KernelLag4})
		if v, ok := c.Get(id); !ok || v != h {
			t.Fatalf("%v resident %v in handle %p, want the recycled %p", id, ok, v, h)
		}
		if heldUnits(s.Space(), h) == 0 {
			t.Fatal("the recycled handle was not evaluated on")
		}
		(&freshValues{t: t, s: s, atoms: map[store.AtomID]*field.Atom{}}).check(e.report.Results)
	}

	t.Run("miss", func(t *testing.T) {
		e, s, c, h := setup(t)
		evaluate(t, e, s, c, h, 2, 3, 2, 2)
		// The miss evicted in its turn: that handle is free now, h is not.
		if len(e.freeAtoms) != 1 || e.freeAtoms[0] == h {
			t.Fatalf("free handles %p with %p resident, want one other than it", e.freeAtoms, h)
		}
	})

	t.Run("prefetch", func(t *testing.T) {
		e, s, c, h := setup(t, func(cfg *Config) { cfg.Prefetch = true })
		// A job drifting one atom and one step per query: after (0,2,2) at
		// step 1 and (1,2,2) at step 2 the predictor names (2,2,2) at step 3.
		j := &job.Job{ID: 9, User: 1, Type: job.Ordered, ThinkTime: time.Second}
		e.predictor.Observe(j.ID, &query.Query{ID: 10, JobID: j.ID, Step: 1, Points: centrePoints(s, 0, 2, 2, 10)})
		e.prefetchFor(j, &query.Query{ID: 11, JobID: j.ID, Seq: 1, Step: 2, Points: centrePoints(s, 1, 2, 2, 10)})
		if e.prefetched == 0 || heldUnits(s.Space(), h) != 0 {
			t.Fatalf("%d atoms prefetched, the handle holds %d half rows: want a prefetch into the free handle, unfilled", e.prefetched, heldUnits(s.Space(), h))
		}
		evaluate(t, e, s, c, h, 3, 2, 2, 2)
	})

	t.Run("retry", func(t *testing.T) {
		e, s, c, h := setup(t)
		// The read comes after the decision's 50 ms overhead; it fails, and
		// so does its first retry 11 ms later, but the second, 21 ms after
		// that, falls past the window.
		e.cfg.Fault = injector(t, fmt.Sprintf("disk-transient:p=1,extra=1ms,until=%v", e.clock.Now()+71*time.Millisecond))
		evaluate(t, e, s, c, h, 2, 3, 2, 2)
		if e.report.Retries != 2 {
			t.Fatalf("%d retries, want 2", e.report.Retries)
		}
		// A read that fails for good leaves the handle it was given free.
		free := len(e.freeAtoms)
		e.cfg.Fault = injector(t, "disk-permanent:p=1")
		if _, err := e.readAtom(store.AtomID{Step: 1, Code: 0}); err == nil {
			t.Fatal("a permanent fault read an atom")
		}
		if free == 0 || len(e.freeAtoms) != free {
			t.Fatalf("%d free handles before the failed read, %d after", free, len(e.freeAtoms))
		}
	})
}

// missCycle returns the steady state of a miss at capacity on a warmed
// engine: every call reads an atom that is not resident, which evicts one,
// fills all of it as a batch would, and ends the decision.
func missCycle(t testing.TB, side int) (step func(), e *Engine) {
	s := frameStore(t, side, 0)
	c := cache.New(8, cache.NewLRUK(2, 0))
	e = newEngine(t, s, sched.NewNoShare(), false, func(cfg *Config) { cfg.Cache = c })
	var ids []store.AtomID
	s.ScanStep(0, func(id store.AtomID) bool { ids = append(ids, id); return len(ids) < 32 })
	next := 0
	step = func() {
		id := ids[next%len(ids)]
		a, err := e.readAtom(id)
		if err != nil {
			t.Fatal(err)
		}
		next++
		// A Lag8 stencil at the centre reads every row of an 8³ or 4³ atom.
		ac := geom.AtomFromCode(id.Code)
		e.fill(a, a.Missing(field.KernelLag8, s.Space(), ac, []geom.Position{s.Space().Center(ac)}))
		e.freeRetired()
	}
	for range 2 * len(ids) {
		step()
	}
	return step, e
}

// TestReadMissAllocs pins the miss path at capacity to nothing: the atom
// goes into an evicted atom's handle, its samples into the rows evicted
// atoms gave back, and the policy's index moves in place.
func TestReadMissAllocs(t *testing.T) {
	step, e := missCycle(t, 8)
	fills := e.fills
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Errorf("a miss at capacity: %v allocs, want 0", n)
	}
	if e.fills-fills < 200 {
		t.Fatalf("%d fills in 200 misses", e.fills-fills)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		step()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 96 {
		t.Errorf("a miss at capacity: %d B allocated, want under 96 (no handle, no row)", per)
	}
}

// TestURCDecisionZeroAllocs pins the utility push a URC cache costs every
// decision: in steady state it allocates nothing.
func TestURCDecisionZeroAllocs(t *testing.T) {
	s := testStore(t)
	c := cache.New(16, cache.NewURC())
	e := newEngine(t, s, sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 4, Resident: c.Contains}), false, func(cfg *Config) {
		cfg.Cache = c
	})
	rng := rand.New(rand.NewSource(4))
	for i := 1; i <= 8; i++ { // pending work on every step, residents to rank
		e.dispatch(&query.Query{ID: query.ID(i), JobID: int64(i), Step: i % 4, Points: scatter(rng, 40), Kernel: field.KernelLag4})
	}
	for range 3 {
		if err := e.execute(e.cfg.Sched.NextBatch(e.clock.Now())); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() == 0 || e.cfg.Sched.Pending() == 0 {
		t.Fatalf("%d resident, %d pending: the push has nothing to do", c.Len(), e.cfg.Sched.Pending())
	}
	if n := testing.AllocsPerRun(100, e.pushUtilities); n != 0 {
		t.Errorf("pushUtilities: %v allocs per decision, want 0", n)
	}
}

// BenchmarkReadAtomMiss is one miss at capacity end to end — cache lookup,
// store read, eviction, fill into the evicted atom's rows — for the daemon's
// 8³ atoms and the experiments' 4³.
func BenchmarkReadAtomMiss(b *testing.B) {
	for _, side := range []int{8, 4} {
		b.Run(fmt.Sprintf("side=%d", side), func(b *testing.B) {
			step, _ := missCycle(b, side)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// peekPolicy is a replacement policy a test can read the cache through:
// while peek is set, a Cache.Get is no hit to the policy, so walking the
// residents moves nothing it ranks.
type peekPolicy struct {
	cache.Policy
	peek bool
}

func (p *peekPolicy) OnHit(id store.AtomID) {
	if !p.peek {
		p.Policy.OnHit(id)
	}
}

// TestRowsFollowFills is serve-cold in small, on the daemon's shape: 8³
// atoms over 8 steps of 64 (512 atoms) against a 256-atom LRU-K cache at
// capacity, each request 8 uniform Lag4 points on a uniform step. An atom
// holds only the half block rows it filled, so the engine's arena holds
// at most the most half rows held at once — bounded, request by request,
// by the half rows the residents hold, walked between requests, and 128
// for every atom the request evicted while its decisions ran — and the
// rest of its last slab. Over a stream of 20 000 requests the second half
// raises that by at most the one slab a new high of units in use carves:
// the arena recycles what evicted atoms held instead of growing with the
// stream.
func TestRowsFollowFills(t *testing.T) {
	const (
		side      = 8
		unitBytes = side / 2 * field.Components * 8 // a half block row of an 8³ atom is 4 samples of a line
		slab      = 16 << 10
	)
	requests := 20000
	if testing.Short() {
		requests = 2000
	}
	s, err := store.Open(store.Config{Space: geom.Space{GridSide: 128, AtomSide: 32}, Steps: 8, SampleSide: side, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pol := &peekPolicy{Policy: cache.NewLRUK(2, 0)}
	c := cache.New(256, pol)
	e := newEngine(t, s, sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 15, Resident: c.Contains}), false, func(cfg *Config) {
		cfg.Cache = c
		cfg.Compute = true
	})
	space := s.Space()
	resident := func() (units int) {
		pol.peek = true
		defer func() { pol.peek = false }()
		c.EachKey(func(id store.AtomID) {
			v, _ := c.Get(id)
			units += heldUnits(space, v)
		})
		return units
	}
	rng := rand.New(rand.NewSource(3))
	held, peak, mid := 0, 0, 0
	for n := 1; n <= requests; n++ {
		evicted := c.Stats().Evictions
		decide(t, e, &query.Query{ID: query.ID(n), JobID: int64(n), Step: rng.Intn(8), Points: scatter(rng, 8), Kernel: field.KernelLag4})
		// Units in use during the request: those held before it, plus what
		// it took, which is what the residents hold now more than before,
		// plus what the atoms it evicted held — at most all their units.
		before := held
		held = resident()
		peak = max(peak, held+int(c.Stats().Evictions-evicted)*2*side*side, before)
		if b := e.rows.Bytes(); b > peak*unitBytes+slab {
			t.Fatalf("request %d: the arena holds %d B, the atoms at most %d half rows of %d B at once", n, b, peak, unitBytes)
		}
		if n == requests/2 {
			mid = e.rows.Bytes()
		}
	}
	if c.Stats().Evictions < int64(requests) {
		t.Fatalf("%d evictions in %d requests: the cache did not churn", c.Stats().Evictions, requests)
	}
	end := e.rows.Bytes()
	t.Logf("arena %d B after %d requests, %d B after %d; the residents hold %d half rows (%d B)", mid, requests/2, end, requests, held, held*unitBytes)
	if end > mid+slab {
		t.Errorf("the arena grew from %d B to %d B over the second %d requests", mid, end, requests/2)
	}
	if whole := c.Capacity() * side * side * side * field.Components * 8; 2*end > whole {
		t.Errorf("the arena holds %d B, over half of the %d B whole atoms took", end, whole)
	}
}

// TestFillRecyclesRows pins a stencil's fill on a fresh atom at capacity
// to nothing: its rows are rows that evicted atoms gave back, and the fill
// kernel's phase tables are the arena's. It holds on the daemon's 8³ atoms
// and on the paper's 72³ (64³ samples and a halo of 4), where a half row
// is a slab of its own, so a fill that took one more than an evicted atom
// gave back would allocate.
func TestFillRecyclesRows(t *testing.T) {
	for _, tc := range []struct {
		name        string
		side, ghost int
	}{{"8³", 8, 0}, {"72³", 64, 4}} {
		t.Run(tc.name, func(t *testing.T) { fillRecyclesRows(t, tc.side, tc.ghost) })
	}
}

func fillRecyclesRows(t *testing.T, side, ghost int) {
	s := frameStore(t, side, ghost)
	c := cache.New(8, cache.NewLRUK(2, 0))
	e := newEngine(t, s, sched.NewNoShare(), false, func(cfg *Config) { cfg.Cache = c })
	space := s.Space()
	var ids []store.AtomID
	s.ScanStep(1, func(id store.AtomID) bool { ids = append(ids, id); return len(ids) < 32 })
	rng := rand.New(rand.NewSource(6))
	next := 0
	step := func() {
		id := ids[next%len(ids)]
		next++
		a, err := e.readAtom(id)
		if err != nil {
			t.Fatal(err)
		}
		ac := geom.AtomFromCode(id.Code)
		lo := float64(space.AtomSide) * space.VoxelSize()
		p := geom.Position{X: (float64(ac.I) + float64(rng.Float64())) * lo, Y: (float64(ac.J) + float64(rng.Float64())) * lo, Z: (float64(ac.K) + float64(rng.Float64())) * lo}
		e.fill(a, a.Missing(field.KernelLag4, space, ac, []geom.Position{p}))
		e.freeRetired()
	}
	for range 4 * len(ids) {
		step()
	}
	fills, held := e.fills, e.rows.Bytes()
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Errorf("a stencil's fill on a fresh atom at capacity: %v allocs, want 0", n)
	}
	if e.fills-fills < 200 {
		t.Fatalf("%d fills in 200 misses", e.fills-fills)
	}
	if e.rows.Bytes() != held {
		t.Errorf("the arena grew from %d B to %d B over 200 misses at capacity: fills carved rows while evicted atoms' were free", held, e.rows.Bytes())
	}
}
