package jobgraph

import (
	"cmp"
	"fmt"
	"slices"

	"jaws/internal/arena"
	"jaws/internal/store"
)

// Ref identifies a query vertex in the precedence graph: query Seq
// (0-based) of job Job.
type Ref struct {
	Job int64
	Seq int
}

// String renders the reference.
func (r Ref) String() string { return fmt.Sprintf("q(%d,%d)", r.Job, r.Seq) }

// State is the scheduling state of a query vertex (§IV.B).
type State uint8

const (
	// Wait: precedence constraints unsatisfied (predecessor not done).
	Wait State = iota
	// Ready: only gating constraints unsatisfied.
	Ready
	// Queue: all constraints satisfied; awaiting execution.
	Queue
	// Done: completed execution.
	Done
)

// String names the state.
func (s State) String() string {
	switch s {
	case Wait:
		return "WAIT"
	case Ready:
		return "READY"
	case Queue:
		return "QUEUE"
	case Done:
		return "DONE"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// member is one query of a gating component. The job ID orders the
// members; the job's slot and the sequence number address the query's
// records, so a walk over members never looks a job up by ID.
type member struct {
	job  int64
	slot int32
	seq  int32
}

func (m member) ref() Ref { return Ref{Job: m.job, Seq: int(m.seq)} }

// component is a set of queries connected by gating edges; all members are
// co-scheduled. It holds at most one query per job, in ascending job ID.
// level is the gating number G: the number of gating edges
// (synchronization points) that must be evaluated before the component can
// be scheduled.
type component struct {
	members []member
	level   int32
}

// vertex is the per-query record.
type vertex struct {
	comp    int32 // index of the query's component in Graph.comps; 0: no gating edge
	atomEnd int32 // end of the query's atoms in its job's atoms
	state   State
	arrived bool // see MarkArrived
}

// jobRec is the per-job record, addressed by slot. A slot is the job's
// index in Graph.jobs from registration until Prune drops the job; a
// vacated slot is a zero record (q == nil) that no slots entry, order
// entry, component member or posting refers to, and the next registration
// reuses it.
type jobRec struct {
	id int64
	q  []vertex // by sequence number
	// atoms holds the per-query atom lists end to end (vertex.atomEnd
	// delimits them).
	atoms []store.AtomID
}

// posting is one node of an atom's chain in the inverted index: a query
// whose footprint contains the atom. next links the chain (and the free
// list) by index+1 into Graph.posts; 0 ends it.
type posting struct {
	slot, seq int32
	next      int32
}

// cand is one partner job's alignment with the job being merged:
// pairs[lo:hi] of the graph's pair buffer.
type cand struct {
	slot   int32
	lo, hi int32
	id     int64
}

// Graph is the precedence graph with gating edges for a set of ordered
// jobs. It is not safe for concurrent use; the scheduler owns it.
//
// Everything is a table indexed by job slot, sequence number or component
// index; a public call resolves its job ID to a slot once and no walk
// inside looks anything up by job or Ref.
type Graph struct {
	slots     map[int64]int32 // job ID → slot
	jobs      []jobRec
	freeSlots []int32
	order     []int32 // live slots in registration order

	// comps[0] is unused, so that a zero vertex has no component. A merge
	// keeps one of the two components' records and frees the other; a freed
	// record drops its member array for the collector (pinning it here
	// would keep every superseded membership alive as long as the graph).
	comps     []component
	freeComps []int32

	verts arena.Arena[vertex]
	atoms arena.Arena[store.AtomID]

	// heads and posts are the inverted index: for each atom, the chain of
	// queries whose footprint contains it. The merge phase reads a new
	// job's sharing partners straight out of it.
	heads    map[store.AtomID]int32
	posts    []posting
	freePost int32

	// The scratch of one registration. bits holds the share relation of
	// the new job with each partner it touches, one bit matrix per partner
	// (rows: the queries of the job with the smaller ID — the dynamic
	// program's A side — columns: the other job's); blockAt[slot] is 1 +
	// the start of that partner's matrix, 0 while untouched, and partners
	// lists the touched slots. cands spans pairs, one span per partner with
	// a non-empty alignment.
	al       Aligner
	bits     []uint64
	blockAt  []int32
	partners []int32
	cands    []cand
	pairs    []Pair

	// admitEdge's scratch: the would-be combined membership, and the
	// one-member lists standing in for queries not yet in a component.
	union []member
	lone  [2]member

	// stats
	admitted, rejected int

	// obs, when set, is called with the outcome of every gating-edge
	// admission attempt (tracing; the graph carries no virtual clock, so
	// the observer stamps events itself).
	obs func(admitted bool, u, v Ref)
}

// New creates an empty graph. Sharing between queries, A(a) ∩ A(b) ≠ ∅,
// comes only from the atom lists jobs are registered with
// (AddJobWithAtoms), so shares must be nil: New panics otherwise. The
// parameter is kept only for benchmark/, which passes nil; ROADMAP item
// 1a(i) drops it.
func New(shares func(a, b Ref) bool) *Graph {
	if shares != nil {
		panic("jobgraph: New takes no shares callback; register jobs with AddJobWithAtoms")
	}
	return &Graph{
		slots: make(map[int64]int32),
		heads: make(map[store.AtomID]int32),
		comps: make([]component, 1),
	}
}

// SetObserver registers fn to be notified of every gating-edge admission
// decision (admitted or refused) between queries u and v. nil disables.
func (g *Graph) SetObserver(fn func(admitted bool, u, v Ref)) { g.obs = fn }

// Registered reports whether job id is in the graph: registered and not
// yet pruned.
func (g *Graph) Registered(id int64) bool {
	_, ok := g.slots[id]
	return ok
}

// EdgesAdmitted reports how many gating links were admitted (a component
// of k members counts as k-1 links).
func (g *Graph) EdgesAdmitted() int { return g.admitted }

// EdgesRejected reports how many candidate links the feasibility checks
// refused.
func (g *Graph) EdgesRejected() int { return g.rejected }

// lookup is the one ID → slot resolution of a public call: q's record and
// its job's slot, or nil for a query that is not live (never registered,
// or pruned).
func (g *Graph) lookup(q Ref) (*vertex, int32) {
	slot, ok := g.slots[q.Job]
	if !ok || q.Seq < 0 || q.Seq >= len(g.jobs[slot].q) {
		return nil, 0
	}
	return &g.jobs[slot].q[q.Seq], slot
}

// vert returns m's record.
func (g *Graph) vert(m member) *vertex { return &g.jobs[m.slot].q[m.seq] }

// AddJobWithAtoms registers an ordered job, aligns it against every
// previously registered job with the Needleman–Wunsch dynamic program, and
// greedily merges the resulting gating edges into the graph (most-sharing
// partner jobs first). This is the incremental path of §IV.B: "when a new
// job arrives, it can be added to the existing graph incrementally".
// atoms[s] lists the atoms query s accesses (order irrelevant; duplicates
// harmless). The job enters the inverted atom index, and its sharing
// partners are discovered by a single pass over the index — one postings
// lookup per atom — so admission cost scales with actual sharing rather
// than with the number of registered queries. The lists are copied: the
// caller may reuse them.
func (g *Graph) AddJobWithAtoms(id int64, atoms [][]store.AtomID) error {
	if _, dup := g.slots[id]; dup {
		return fmt.Errorf("jobgraph: job %d already registered", id)
	}
	n := len(atoms)
	if n == 0 {
		return fmt.Errorf("jobgraph: job %d has no queries", id)
	}
	var slot int32
	if k := len(g.freeSlots); k > 0 {
		slot, g.freeSlots = g.freeSlots[k-1], g.freeSlots[:k-1]
	} else {
		slot = int32(len(g.jobs))
		g.jobs = append(g.jobs, jobRec{})
		g.blockAt = append(g.blockAt, 0)
	}
	j := &g.jobs[slot]
	*j = jobRec{id: id, q: g.verts.Alloc(n, n)}
	j.q[0].state = Ready
	g.slots[id] = slot
	g.order = append(g.order, slot)
	total := 0
	for _, as := range atoms {
		total += len(as)
	}
	j.atoms = g.atoms.Alloc(0, total)
	for s, as := range atoms {
		j.atoms = append(j.atoms, as...)
		j.q[s].atomEnd = int32(len(j.atoms))
	}
	g.mergeJob(slot)
	// The only query the registration can have made promotable is the new
	// job's first, born Ready. A merge only adds members to a component,
	// and promote needs every member to have reached Ready, so a component
	// that was not satisfied before the merge is not satisfied after it;
	// one that was had its Ready members promoted then.
	g.promote(slot, 0)
	return nil
}

// sides orients a pair of jobs for the dynamic program: the job with the
// smaller ID is the A side, whichever of the two is being merged, because
// the traceback's tie-breaks depend on the orientation.
func (g *Graph) sides(x, y int32) (a, b *jobRec) {
	a, b = &g.jobs[x], &g.jobs[y]
	if b.id < a.id {
		a, b = b, a
	}
	return a, b
}

// block returns where partner's share matrix starts in bits and its row
// stride in words, carving a cleared matrix at first touch.
func (g *Graph) block(a, b *jobRec, partner int32) (base, stride int) {
	stride = (len(b.q) + 63) >> 6
	if g.blockAt[partner] == 0 {
		base = len(g.bits)
		g.bits = slices.Grow(g.bits, len(a.q)*stride)[:base+len(a.q)*stride]
		clear(g.bits[base:])
		g.blockAt[partner] = int32(base) + 1
		g.partners = append(g.partners, partner)
	}
	return int(g.blockAt[partner]) - 1, stride
}

// mergeJob admits gating edges between the new job and every previously
// registered job, taking partner jobs in decreasing order of alignment
// size (the greedy merge of §IV.B) and admitting each job's edges in
// precedence order. The sharing relation comes from one pass over the
// inverted index and lands in one bit matrix per partner, which the
// dynamic program consumes.
func (g *Graph) mergeJob(self int32) {
	j := &g.jobs[self]
	g.bits, g.partners = g.bits[:0], g.partners[:0]
	// Single sweep over the new job's atoms: every posting met marks one
	// shared (new-seq, partner-seq) cell, and the new query joins the chain.
	lo := int32(0)
	for s := range j.q {
		for _, atom := range j.atoms[lo:j.q[s].atomEnd] {
			head := g.heads[atom]
			for p := head; p != 0; p = g.posts[p-1].next {
				hit := g.posts[p-1]
				if hit.slot == self {
					continue
				}
				a, b := g.sides(self, hit.slot)
				base, stride := g.block(a, b, hit.slot)
				row, col := int(hit.seq), s
				if a == j {
					row, col = s, int(hit.seq)
				}
				g.bits[base+row*stride+col>>6] |= 1 << (col & 63)
			}
			g.heads[atom] = g.newPosting(self, int32(s), head)
		}
		lo = j.q[s].atomEnd
	}
	g.cands, g.pairs = g.cands[:0], g.pairs[:0]
	for _, p := range g.partners {
		a, b := g.sides(self, p)
		base, stride := g.block(a, b, p) // touched: this only locates it
		g.blockAt[p] = 0
		g.al.Begin(len(b.q))
		for row := range a.q {
			g.al.AppendRow(g.bits[base+row*stride : base+(row+1)*stride])
		}
		lo := len(g.pairs)
		g.pairs = g.al.Pairs(g.pairs)
		if len(g.pairs) == lo {
			continue
		}
		if a != j { // SeqA is the new job's query, whichever side it was
			for k := lo; k < len(g.pairs); k++ {
				g.pairs[k].SeqA, g.pairs[k].SeqB = g.pairs[k].SeqB, g.pairs[k].SeqA
			}
		}
		g.cands = append(g.cands, cand{slot: p, lo: int32(lo), hi: int32(len(g.pairs)), id: g.jobs[p].id})
	}
	slices.SortFunc(g.cands, byAlignment)
	for _, c := range g.cands {
		for _, p := range g.pairs[c.lo:c.hi] {
			g.admitEdge(member{j.id, self, int32(p.SeqA)}, member{c.id, c.slot, int32(p.SeqB)})
		}
	}
}

// byAlignment is the greedy merge order: larger alignments first, ties to
// the smaller job ID. IDs are distinct, so the order is total.
func byAlignment(a, b cand) int {
	if c := cmp.Compare(b.hi-b.lo, a.hi-a.lo); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// newPosting links a node for query (slot, seq) in front of next.
func (g *Graph) newPosting(slot, seq, next int32) int32 {
	p := g.freePost
	if p == 0 {
		g.posts = append(g.posts, posting{})
		p = int32(len(g.posts))
	} else {
		g.freePost = g.posts[p-1].next
	}
	g.posts[p-1] = posting{slot: slot, seq: seq, next: next}
	return p
}

// membersOf returns the component of m's query, or m alone in lone[i].
func (g *Graph) membersOf(m member, c int32, i int) []member {
	if c != 0 {
		return g.comps[c].members
	}
	g.lone[i] = m
	return g.lone[i : i+1]
}

// levelBounds returns the gating levels a component holding query seq of
// job slot must lie between: above every gated query before it in the job
// — lower is 1 + the nearest one's level, the MaxGatNum computation of
// Fig. 4 — and strictly below the nearest gated query after it (upper; -1
// if none). Levels increase strictly along a job, so the nearest gated
// neighbours carry the binding ones.
func (g *Graph) levelBounds(slot, seq int32) (lower, upper int32) {
	q := g.jobs[slot].q
	lower, upper = 1, -1
	for s := seq - 1; s >= 0; s-- {
		if c := q[s].comp; c != 0 {
			lower = g.comps[c].level + 1
			break
		}
	}
	for s := int(seq) + 1; s < len(q); s++ {
		if c := q[s].comp; c != 0 {
			upper = g.comps[c].level
			break
		}
	}
	return lower, upper
}

// admitEdge attempts to admit a gating edge between u (a query of the job
// being merged) and v (a query of an already-merged job), applying the
// feasibility checks of Fig. 4:
//
//   - transitivity: u joins v's whole component (co-scheduling is
//     transitive), so the checks run against every member;
//   - one gating edge per query per job pair, and no crossing edges
//     between any job pair (precedence consistency, lines 10–13) — implied
//     by the other two, see below;
//   - no scheduling deadlock: gating levels must remain strictly
//     increasing along every job (the gating-number check of line 9).
//
// It reports whether the edge was admitted.
func (g *Graph) admitEdge(u, v member) bool {
	cu, cv := g.vert(u).comp, g.vert(v).comp
	if cu != 0 && cu == cv {
		return true // already co-scheduled
	}
	mu, mv := g.membersOf(u, cu, 0), g.membersOf(v, cv, 1)

	// The would-be combined membership: both lists are in job order, so one
	// merge builds it. A component may contain at most one query per job —
	// co-scheduling two ordered queries of the same job is an immediate
	// deadlock — and a job in both lists shows up as a tie.
	all := slices.Grow(g.union[:0], len(mu)+len(mv))
	g.union = all
	i, k := 0, 0
	for i < len(mu) && k < len(mv) {
		switch {
		case mu[i].job == mv[k].job:
			return g.rejectEdge(u, v)
		case mu[i].job < mv[k].job:
			all = append(all, mu[i])
			i++
		default:
			all = append(all, mv[k])
			k++
		}
	}
	all = append(append(all, mu[i:]...), mv[k:]...)

	// No crossing scan (Fig. 4, lines 10–13): the checks on either side of
	// this point refuse every edge it would. Take an existing pair — queries
	// s of job A and t of job B in one component C — and a new pair a ∈ mu of
	// A, b ∈ mv of B. A second edge on s (a = s) means mu is C, which holds B
	// as mv does: refused above as a tie; likewise b = t. A crossing (s
	// before a, t after b, or the reverse) needs the merged level above
	// level(C) along A and below it along B, and levels increase strictly
	// along a job: refused below — two committed levels differ, a committed
	// one lies on the wrong side of C's, or lower ≥ upper. Where both sides
	// are committed (cu, cv ≠ 0) lower is never compared with level, so only
	// that invariant refuses a crossing: checkTables asserts it after every
	// op of the differential logs. The oracle's ModelGraph keeps the scan
	// (its crosses); the op-log test counts how often it is the model's
	// reason and holds the outcomes equal.

	// Level feasibility (gating numbers). Every member imposes a lower
	// bound (strictly above all gated predecessors in its job) and an
	// upper bound (strictly below all gated successors).
	lower, upper := int32(0), int32(1<<30)
	for _, m := range all {
		lb, ub := g.levelBounds(m.slot, m.seq)
		lower = max(lower, lb)
		if ub >= 0 {
			upper = min(upper, ub)
		}
	}
	level := lower
	// Existing components have committed levels; they cannot move (their
	// jobs' later edges were admitted against them).
	switch {
	case cu != 0 && cv != 0:
		if g.comps[cu].level != g.comps[cv].level {
			return g.rejectEdge(u, v)
		}
		level = g.comps[cu].level
	case cu != 0:
		if g.comps[cu].level < lower {
			return g.rejectEdge(u, v)
		}
		level = g.comps[cu].level
	case cv != 0:
		if g.comps[cv].level < lower {
			return g.rejectEdge(u, v)
		}
		level = g.comps[cv].level
	}
	if level >= upper {
		return g.rejectEdge(u, v)
	}

	// Admit: union into one component at the agreed level, in the record
	// (and, if it fits, the member array) of whichever side has more room.
	keep, drop := cv, cu
	if cap(g.comps[cu].members) > cap(g.comps[cv].members) {
		keep, drop = cu, cv
	}
	switch {
	case keep == 0 && len(g.freeComps) > 0:
		keep = g.freeComps[len(g.freeComps)-1]
		g.freeComps = g.freeComps[:len(g.freeComps)-1]
	case keep == 0:
		keep = int32(len(g.comps))
		g.comps = append(g.comps, component{})
	}
	if drop != 0 {
		g.freeComp(drop)
	}
	c := &g.comps[keep]
	c.members, c.level = append(c.members[:0], all...), level
	for _, m := range all {
		g.vert(m).comp = keep
	}
	g.admitted++
	if g.obs != nil {
		g.obs(true, u.ref(), v.ref())
	}
	return true
}

// freeComp vacates a component record, leaving its member array to the
// collector.
func (g *Graph) freeComp(c int32) {
	g.comps[c] = component{}
	g.freeComps = append(g.freeComps, c)
}

// rejectEdge counts and reports one refused gating edge.
func (g *Graph) rejectEdge(u, v member) bool {
	g.rejected++
	if g.obs != nil {
		g.obs(false, u.ref(), v.ref())
	}
	return false
}

// GatingNumber returns G(q): the gating level of q's component, or 0 if q
// has no gating edges.
func (g *Graph) GatingNumber(q Ref) int {
	if v, _ := g.lookup(q); v != nil {
		return int(g.comps[v.comp].level)
	}
	return 0
}

// Partners returns the queries co-scheduled with q (its component minus
// itself), in deterministic order. The slice is freshly allocated.
func (g *Graph) Partners(q Ref) []Ref {
	v, _ := g.lookup(q)
	if v == nil || v.comp == 0 {
		return nil
	}
	members := g.comps[v.comp].members
	out := make([]Ref, 0, len(members)-1)
	for _, m := range members {
		if m.ref() != q {
			out = append(out, m.ref())
		}
	}
	return out
}

// State returns the scheduling state of q. Unknown queries read as Wait.
func (g *Graph) State(q Ref) State {
	if v, _ := g.lookup(q); v != nil {
		return v.state
	}
	return Wait
}

// MarkArrived records that q has arrived at the scheduler (for an ordered
// job's later queries: its predecessor completed and the think time has
// elapsed). Dispatchable reads it; nothing else in the graph does. Unknown
// queries are ignored.
func (g *Graph) MarkArrived(q Ref) {
	if v, _ := g.lookup(q); v != nil {
		v.arrived = true
	}
}

// Dispatchable reports whether q can enter the workload queues: it is in
// the QUEUE state and every co-scheduled partner that is not yet DONE has
// arrived too, so that the whole group can be enqueued in one pass. It
// allocates nothing.
func (g *Graph) Dispatchable(q Ref) bool {
	v, _ := g.lookup(q)
	if v == nil || v.state != Queue {
		return false
	}
	for _, m := range g.comps[v.comp].members {
		if p := g.vert(m); p != v && p.state != Done && !p.arrived {
			return false
		}
	}
	return true
}

// MarkDone records the completion of q, releases its successor from WAIT,
// and propagates gating releases. Marking an unknown or non-QUEUE query
// done is a programming error in the engine and panics.
func (g *Graph) MarkDone(q Ref) {
	v, slot := g.lookup(q)
	if v == nil {
		panic(fmt.Sprintf("jobgraph: MarkDone on unknown query %v", q))
	}
	if v.state != Queue {
		panic(fmt.Sprintf("jobgraph: MarkDone on %v in state %v", q, v.state))
	}
	v.state = Done
	// Incremental propagation: q's own transition (QUEUE→DONE) cannot
	// change anyone's gating satisfaction — both states already count as
	// "reached Ready". Only the successor's WAIT→READY release can, and
	// only for the successor itself and the members of its component.
	jq := g.jobs[slot].q
	if q.Seq+1 >= len(jq) || jq[q.Seq+1].state != Wait {
		return
	}
	succ := &jq[q.Seq+1]
	succ.state = Ready
	g.promote(slot, int32(q.Seq+1))
	for _, m := range g.comps[succ.comp].members {
		g.promote(m.slot, m.seq)
	}
}

// promote moves a query from READY to QUEUE if every query co-scheduled
// with it has at least reached READY (Done partners count: their data
// sharing opportunity has passed). Because promotion only raises a state
// that already counts as "reached Ready" for partners, it can never
// enable a further promotion, so callers need no fixpoint iteration; they
// just promote every query whose satisfaction may have changed. The naive
// full-graph fixpoint this replaces is kept as propagateAll for the
// equivalence tests.
func (g *Graph) promote(slot, seq int32) {
	v := &g.jobs[slot].q[seq]
	if v.state != Ready {
		return
	}
	for _, m := range g.comps[v.comp].members {
		if g.vert(m).state < Ready {
			return
		}
	}
	v.state = Queue
}

// BlockedBy appends to buf the queries directly holding q back and
// returns the extended slice (empty when q is schedulable, done, or
// unknown): a WAIT query is held by its job predecessor; a READY query
// by the co-scheduled partners that have not yet reached READY
// themselves, in deterministic (job, seq) order. It allocates nothing
// when buf has capacity.
func (g *Graph) BlockedBy(q Ref, buf []Ref) []Ref {
	v, _ := g.lookup(q)
	if v == nil {
		return buf
	}
	switch v.state {
	case Wait:
		return append(buf, Ref{Job: q.Job, Seq: q.Seq - 1})
	case Ready:
		for _, m := range g.comps[v.comp].members {
			if g.vert(m).state < Ready {
				buf = append(buf, m.ref())
			}
		}
	}
	return buf
}

// Schedulable returns all queries currently in the QUEUE state, ordered by
// (job registration order, sequence).
func (g *Graph) Schedulable() []Ref {
	var out []Ref
	for _, slot := range g.order {
		j := &g.jobs[slot]
		for s := range j.q {
			if j.q[s].state == Queue {
				out = append(out, Ref{Job: j.id, Seq: s})
			}
		}
	}
	return out
}

// Finished reports whether every query of every registered job is DONE.
func (g *Graph) Finished() bool {
	for _, slot := range g.order {
		for _, v := range g.jobs[slot].q {
			if v.state != Done {
				return false
			}
		}
	}
	return true
}

// Prune drops completed jobs from the graph (the paper prunes completed
// queries continually to keep the merge phase cheap). A job is dropped
// when all of its queries are DONE and none of its components link to a
// live query. Its queries leave the components they were in — a component
// that survives through another job keeps its level and its other members
// — its postings leave the inverted index, and its slot is vacated.
func (g *Graph) Prune() {
	keep := g.order[:0]
	for _, slot := range g.order {
		if g.drained(slot) {
			g.drop(slot)
		} else {
			keep = append(keep, slot)
		}
	}
	g.order = keep
}

// drained reports whether every query of the job, and every query
// co-scheduled with one, is DONE.
func (g *Graph) drained(slot int32) bool {
	for _, v := range g.jobs[slot].q {
		if v.state != Done {
			return false
		}
		for _, m := range g.comps[v.comp].members {
			if g.vert(m).state != Done {
				return false
			}
		}
	}
	return true
}

// drop removes a job and vacates its slot.
func (g *Graph) drop(slot int32) {
	j := &g.jobs[slot]
	for _, v := range j.q {
		if v.comp == 0 {
			continue
		}
		c := &g.comps[v.comp]
		k := 0
		for c.members[k].slot != slot {
			k++
		}
		c.members = slices.Delete(c.members, k, k+1)
		if len(c.members) == 0 {
			g.freeComp(v.comp)
		}
	}
	for _, atom := range j.atoms {
		// Unlink the job's nodes from the atom's chain.
		head := g.heads[atom]
		for link := &head; *link != 0; {
			p := &g.posts[*link-1]
			if p.slot != slot {
				link = &p.next
				continue
			}
			*link, p.next, g.freePost = p.next, g.freePost, *link
		}
		if head == 0 {
			delete(g.heads, atom)
		} else {
			g.heads[atom] = head
		}
	}
	delete(g.slots, j.id)
	*j = jobRec{}
	g.freeSlots = append(g.freeSlots, slot)
}
