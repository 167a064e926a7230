// Package query models Turbulence queries and the LifeRaft/JAWS
// pre-processing stage (§III.B): each query supplies a list of positions
// to evaluate at one time step with an interpolation kernel; the
// pre-processor identifies the atom containing each position and splits
// the query into per-atom sub-queries that can be executed in any order
// and whose results combine into the original query's result.
package query

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"time"

	"jaws/internal/arena"
	"jaws/internal/field"
	"jaws/internal/geom"
	"jaws/internal/morton"
	"jaws/internal/store"
)

// ID uniquely identifies a query within one scheduler instance.
type ID int64

// Query is one request: evaluate Kernel at every position at time step
// Step. Queries belonging to an ordered job carry their job's ID and their
// sequence index within it.
type Query struct {
	ID     ID
	Step   int
	Points []geom.Position
	Kernel field.Kernel

	// DerivSteps, when ≥2, marks a temporal-derivative query: Points are
	// evaluated at every step of the chain Step..Step+DerivSteps−1 and
	// the per-step results are finite-differenced into ∂/∂t estimates
	// (DerivWeights over StepDT). 0 and 1 mean a plain single-step query.
	// The pre-processor emits per-(step, atom) sub-queries for the whole
	// chain, so one logical query spans several step buckets in the
	// scheduler and widens A(q) in the gating graph.
	DerivSteps int

	// JobID is zero for one-off queries.
	JobID int64
	// Seq is the query's position within its job (0-based).
	Seq int
	// User identifies the submitting scientist (used by the job
	// identification heuristics and the workload generator).
	User int

	// ReqID is the serving layer's request ID when the query entered
	// through HTTP (empty for batch workloads). The engine copies it into
	// the query's lifecycle span so wall-clock and virtual-clock records
	// of one request stitch together.
	ReqID string

	// Arrival is the virtual time the query entered the system. For
	// ordered jobs beyond the first query this is set when the predecessor
	// completes (plus think time).
	Arrival time.Duration
}

// Validate checks the query is well formed.
func (q *Query) Validate() error {
	if len(q.Points) == 0 {
		return fmt.Errorf("query %d: no positions", q.ID)
	}
	if q.Step < 0 {
		return fmt.Errorf("query %d: negative time step %d", q.ID, q.Step)
	}
	if q.DerivSteps < 0 {
		return fmt.Errorf("query %d: negative derivative chain %d", q.ID, q.DerivSteps)
	}
	return nil
}

// ChainLen is the number of adjacent time steps the query evaluates:
// DerivSteps for temporal-derivative queries, 1 otherwise.
func (q *Query) ChainLen() int {
	if q.DerivSteps > 1 {
		return q.DerivSteps
	}
	return 1
}

// SubQuery is the unit of scheduling: the subset of a query's positions
// that fall within a single atom, plus the footprint of neighbouring atoms
// the kernel stencil may touch.
type SubQuery struct {
	Query *Query
	// Atom is the primary atom (contains the positions).
	Atom store.AtomID
	// Index lists the positions inside Atom by their request index, i in
	// Query.Points[i], sorted in Morton order of their voxels so locations
	// close in space are evaluated in close succession (§III.B); positions
	// in the same voxel keep their input order. It does not depend on the
	// step: the steps of a derivative chain share one array, read-only.
	Index []int
	// Footprint lists additional atoms the interpolation stencils of
	// these positions spill into (excluding Atom itself). The two-level
	// scheduler co-schedules them to respect locality of reference.
	Footprint []store.AtomID
}

// pointKey places one input position in the partition order: primary
// atom, then voxel, then input index. The index makes the order strict and
// total, so the result does not depend on the sorting algorithm.
type pointKey struct {
	atom, voxel morton.Code
	idx         int
}

func comparePointKeys(a, b pointKey) int {
	if c := cmp.Compare(a.atom, b.atom); c != 0 {
		return c
	}
	if c := cmp.Compare(a.voxel, b.voxel); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// keyLayout packs a pointKey into one integer that orders as the key does:
// the atom code above the voxel code above the input index.
type keyLayout struct{ voxelBits, idxBits uint }

// packedKeyBits is the room a packed key has.
const packedKeyBits = 64

// layoutFor returns the layout of a query of n points in space, and how
// many bits it takes.
func layoutFor(space geom.Space, n int) (keyLayout, int) {
	atomBits := 3 * bits.Len(uint(space.AtomsPerAxis()-1))
	l := keyLayout{voxelBits: 3 * uint(bits.Len(uint(space.GridSide-1))), idxBits: uint(bits.Len(uint(n - 1)))}
	return l, atomBits + int(l.voxelBits+l.idxBits)
}

func (l keyLayout) pack(k pointKey) uint64 {
	return uint64(k.atom)<<(l.voxelBits+l.idxBits) | uint64(k.voxel)<<l.idxBits | uint64(k.idx)
}

// sort sorts keys through their packed form, built in buf, and returns
// buf.
func (l keyLayout) sort(keys []pointKey, buf []uint64) []uint64 {
	for _, k := range keys {
		buf = append(buf, l.pack(k))
	}
	sortPacked(buf)
	for i, k := range buf {
		keys[i] = l.unpack(k)
	}
	return buf
}

// insertionRun is the most keys sortPacked sorts by insertion: every query
// of the benchmark traces (30 to 89 points). At those sizes insertion
// beats pdqsort, which pays a mispredicted branch per comparison
// (DESIGN.md §7, "Defined point order").
const insertionRun = 96

// sortPacked sorts distinct packed keys ascending: by insertion up to
// insertionRun keys, by slices.Sort above.
func sortPacked(keys []uint64) {
	if len(keys) > insertionRun {
		slices.Sort(keys)
		return
	}
	for i := 1; i < len(keys); i++ {
		k, j := keys[i], i
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
}

func (l keyLayout) unpack(k uint64) pointKey {
	return pointKey{
		atom:  morton.Code(k >> (l.voxelBits + l.idxBits)),
		voxel: morton.Code(k >> l.idxBits & (1<<l.voxelBits - 1)),
		idx:   int(k & (1<<l.idxBits - 1)),
	}
}

// atomGroup is one primary atom's run of keys[lo:hi] and its staged
// footprint codes[fpLo:fpHi].
type atomGroup struct {
	lo, hi, fpLo, fpHi int
}

// scratch is Split's working storage. It holds no pointers into a query,
// and a pooled one is never larger than the largest query it served.
type scratch struct {
	keys   []pointKey
	packed []uint64
	groups []atomGroup
	codes  []morton.Code
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Partition is the storage of one query's split into sub-queries: the
// request indices in partition order, the sub-query records and the
// footprints. Its owner reuses it query after query; an array grows only
// when a query is larger than any the partition served — the indices to
// the query's size exactly (they are most of a partition's bytes), the two
// small arrays to the next power of two (smallCap). The zero value is ready
// to use and allocates its arrays; a partition from NewPartition carves its
// first array of each kind from its owner's Runs.
type Partition struct {
	idx  []int
	subs []SubQuery
	fps  []store.AtomID
	runs *Runs
}

// Runs holds the arenas that the partitions of one owner carve their first
// arrays from. It and the chunks die with the owner; a regrown array is
// allocated, so a partition leaves at most one dead run of each kind in a
// chunk, cleared. The zero value is ready to use.
type Runs struct {
	idx  arena.Arena[int]
	subs arena.Arena[SubQuery]
	fps  arena.Arena[store.AtomID]
}

// NewPartition returns an empty partition that carves from r.
func NewPartition(r *Runs) Partition { return Partition{runs: r} }

// PointCap is the number of positions p holds without growing.
func (p *Partition) PointCap() int { return cap(p.idx) }

// PreProcess splits q into sub-queries in storage of their own (see
// Partition.Split).
func PreProcess(q *Query, space geom.Space) ([]*SubQuery, error) {
	subs, err := new(Partition).Split(q, space)
	if err != nil {
		return nil, err
	}
	out := make([]*SubQuery, len(subs))
	for i := range subs {
		out[i] = &subs[i]
	}
	return out, nil
}

// Split splits q into sub-queries grouped by primary atom, in Morton
// order of the atoms. It returns an error if the query is malformed.
//
// The sub-queries, their indices and their footprints are carved out of
// one array each, so nothing depends on the number of points or atoms but
// the arrays' sizes. They are p's: valid until the next Split or Reset.
func (p *Partition) Split(q *Query, space geom.Space) ([]SubQuery, error) {
	return p.split(q, space, packedKeyBits)
}

// split is Split with the packed key's room as an argument, for the test
// that forces the comparator on a query of ordinary size. The comparator
// is there for keys that do not fit 64 bits only: no shipped workload
// reaches it (jawsd caps a query at 4096 points; at the paper's 1024/64
// it takes more than 4 Mi points).
func (p *Partition) split(q *Query, space geom.Space, room int) ([]SubQuery, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	radius := q.Kernel.StencilRadius()
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	// One pass resolves every position; one sort groups them. The order is
	// strict and total, so wherever the three fields fit one integer — a
	// property of the space and the point count — the keys are sorted as
	// integers, without a comparator call per comparison.
	keys := sc.keys[:0]
	for i, pt := range q.Points {
		vx, vy, vz := space.VoxelOf(pt)
		keys = append(keys, pointKey{
			atom:  morton.Encode(uint32(vx/space.AtomSide), uint32(vy/space.AtomSide), uint32(vz/space.AtomSide)),
			voxel: morton.Encode(uint32(vx), uint32(vy), uint32(vz)),
			idx:   i,
		})
	}
	sc.keys = keys
	if layout, need := layoutFor(space, len(keys)); need <= room {
		sc.packed = layout.sort(keys, sc.packed[:0])
	} else {
		slices.SortFunc(keys, comparePointKeys)
	}

	// Stage each group's footprint as atom codes: they are the same at
	// every step of a derivative chain. A stencil that stays inside its
	// atom on all three axes — most do — adds nothing to it.
	var ai *arena.Arena[int]
	var as *arena.Arena[SubQuery]
	var af *arena.Arena[store.AtomID]
	if p.runs != nil {
		ai, as, af = &p.runs.idx, &p.runs.subs, &p.runs.fps
	}
	groups, codes := sc.groups[:0], sc.codes[:0]
	idx := grow(ai, p.idx, len(keys), len(keys))
	// inside tells whether a stencil about voxel v stays in the atom that
	// starts at voxel o on that axis.
	inside := func(v uint32, o int) bool {
		l := int(v) - o
		return l >= radius && l+radius < space.AtomSide
	}
	for lo := 0; lo < len(keys); {
		g := atomGroup{lo: lo, hi: lo + 1, fpLo: len(codes)}
		for g.hi < len(keys) && keys[g.hi].atom == keys[lo].atom {
			g.hi++
		}
		ax, ay, az := keys[lo].atom.Decode()
		ox, oy, oz := int(ax)*space.AtomSide, int(ay)*space.AtomSide, int(az)*space.AtomSide
		for i := g.lo; i < g.hi; i++ {
			idx[i] = keys[i].idx
			if radius <= 0 {
				continue
			}
			vx, vy, vz := keys[i].voxel.Decode()
			if inside(vx, ox) && inside(vy, oy) && inside(vz, oz) {
				continue
			}
			var buf [geom.MaxFootprint]geom.AtomCoord
			for _, ac := range space.AppendFootprintAt(buf[:0], int(vx), int(vy), int(vz), radius)[1:] {
				if c := ac.Code(); !slices.Contains(codes[g.fpLo:], c) {
					codes = append(codes, c)
				}
			}
		}
		slices.Sort(codes[g.fpLo:])
		g.fpHi = len(codes)
		groups = append(groups, g)
		lo = g.hi
	}
	sc.groups, sc.codes = groups, codes

	// A temporal-derivative query repeats the partition at every step of
	// its chain (atom codes depend only on position, and the engine's
	// finite-differencing relies on the congruence): the steps share the
	// index storage and differ in the step of their atom IDs.
	chain := q.ChainLen()
	if n := chain * len(groups); n > cap(p.subs) {
		// The records left behind may sit in a chunk that lives on: they
		// must pin nothing of the query they held.
		clear(p.subs[:cap(p.subs)])
	}
	subs := grow(as, p.subs, chain*len(groups), smallCap(chain*len(groups)))
	fps := grow(af, p.fps, chain*len(codes), smallCap(chain*len(codes)))[:0]
	for s := 0; s < chain; s++ {
		step := q.Step + s
		for gi, g := range groups {
			sq := &subs[s*len(groups)+gi]
			*sq = SubQuery{
				Query: q,
				Atom:  store.AtomID{Step: step, Code: keys[g.lo].atom},
				Index: idx[g.lo:g.hi:g.hi],
			}
			if g.fpLo < g.fpHi {
				n := len(fps)
				for _, c := range codes[g.fpLo:g.fpHi] {
					fps = append(fps, store.AtomID{Step: step, Code: c})
				}
				sq.Footprint = fps[n:len(fps):len(fps)]
			}
		}
	}
	p.idx, p.subs, p.fps = idx, subs, fps
	return subs, nil
}

// Reset drops p's references to the query it last split, so that an idle
// partition pins nothing but its own arrays.
func (p *Partition) Reset() { clear(p.subs) }

// grow returns s with length n, in its own array when that has room, else
// in a new one of capacity c ≥ n: carved from a, when there is one, for a
// partition's first array, allocated for a regrowth. It leaves the old
// array as it is; the caller clears one that holds pointers.
func grow[T any](a *arena.Arena[T], s []T, n, c int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	if cap(s) == 0 && a != nil {
		return a.Alloc(n, c)
	}
	return make([]T, n, c)
}

// smallCap is the capacity a partition's two small arrays grow to for n
// records: the next power of two, and no less than 8, so that a frame's
// arrays do not climb 1 → 2 → 4 → 8 over the queries it serves.
func smallCap(n int) int { return max(8, 1<<bits.Len(uint(n-1))) }

// AppendAtoms appends the primary atoms accessed by query q — A(q) in the
// paper's notation (§IV), the basis of the data-sharing test between
// queries of different jobs — to buf, each once, in clustered-key order
// (step, then Morton code). A temporal-derivative query's set spans its
// whole step chain. It allocates nothing when buf has room for one entry
// per point.
func AppendAtoms(buf []store.AtomID, q *Query, space geom.Space) []store.AtomID {
	first := len(buf)
	for _, p := range q.Points {
		// Neighbouring points mostly share an atom: drop the repeats a
		// comparison away, sort and compact the rest.
		if c := space.AtomOf(p).Code(); len(buf) == first || buf[len(buf)-1].Code != c {
			buf = append(buf, store.AtomID{Step: q.Step, Code: c})
		}
	}
	slices.SortFunc(buf[first:], func(a, b store.AtomID) int { return cmp.Compare(a.Code, b.Code) })
	buf = buf[:first+len(slices.Compact(buf[first:]))]
	// The later steps of a derivative chain touch the same atoms, a step on.
	n := len(buf) - first
	for s := 1; s < q.ChainLen(); s++ {
		for _, id := range buf[first : first+n] {
			buf = append(buf, store.AtomID{Step: q.Step + s, Code: id.Code})
		}
	}
	return buf
}

// Atoms returns A(q) as a set.
func Atoms(q *Query, space geom.Space) map[store.AtomID]bool {
	out := make(map[store.AtomID]bool)
	for _, id := range AppendAtoms(nil, q, space) {
		out[id] = true
	}
	return out
}
