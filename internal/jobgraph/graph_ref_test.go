// The map-based job graph this package shipped before the dense-table
// layout (graph.go and align.go at commit 72a0c97), kept as the
// differential reference of TestGraphMatchesReference and FuzzGraphOps —
// the way lruk_ref_test.go and preprocess_ref_test.go keep theirs. It is
// verbatim but for the ref* names, one marked edit in Prune, and the
// removal of its shares-callback registration path (AddJob, dpPairs and
// their cache), which Graph no longer has. Do not optimise it.

package jobgraph

import (
	"fmt"
	"sort"

	"jaws/internal/store"
)

// component is a set of queries connected by gating edges; all members are
// co-scheduled. level is the gating number G: the number of gating edges
// (synchronization points) that must be evaluated before the component can
// be scheduled.
type refComponent struct {
	members []Ref
	level   int
}

// refJobInfo is the per-job record: query states and component pointers are
// dense slices indexed by sequence number (the per-Ref maps they replace
// dominated the gating profile), gated lists the job's gated queries in
// sequence order, and atoms holds the per-query atom lists.
type refJobInfo struct {
	n      int
	states []State
	comps  []*refComponent
	gated  []Ref
	atoms  [][]store.AtomID
}

// Graph is the precedence graph with gating edges for a set of ordered
// jobs. It is not safe for concurrent use; the scheduler owns it.
type refGraph struct {
	jobs   map[int64]*refJobInfo
	jobSeq []int64 // job registration order, for deterministic iteration

	// postings is the inverted index: for each atom, the queries whose
	// footprint contains it. The merge phase reads a new job's sharing
	// partners straight out of it.
	postings map[store.AtomID][]Ref

	al refAligner

	// work and touched are the reusable buffers of the incremental
	// propagation (see promote).
	work    []Ref
	touched []*refComponent

	// stats
	admitted, rejected int
	// crossings counts the edges the crossing scan refused. Graph has no
	// scan — its tie and level checks refuse the same edges — so every one
	// of these is a case in which the two graphs agree for different reasons.
	crossings int

	// obs, when set, is called with the outcome of every gating-edge
	// admission attempt (tracing; the graph carries no virtual clock, so
	// the observer stamps events itself).
	obs func(admitted bool, u, v Ref)
}

// newRefGraph creates an empty graph.
func newRefGraph() *refGraph {
	return &refGraph{
		jobs:     make(map[int64]*refJobInfo),
		postings: make(map[store.AtomID][]Ref),
	}
}

// SetObserver registers fn to be notified of every gating-edge admission
// decision (admitted or refused) between queries u and v. nil disables.
func (g *refGraph) SetObserver(fn func(admitted bool, u, v Ref)) { g.obs = fn }

// Jobs returns the number of registered jobs.
func (g *refGraph) Jobs() int { return len(g.jobs) }

// EdgesAdmitted reports how many gating links were admitted (a component
// of k members counts as k-1 links).
func (g *refGraph) EdgesAdmitted() int { return g.admitted }

// EdgesRejected reports how many candidate links the feasibility checks
// refused.
func (g *refGraph) EdgesRejected() int { return g.rejected }

// stateOf returns the state of q and whether q is a live (registered,
// unpruned) query. Unknown queries read as Wait, matching the map
// semantics this replaced.
func (g *refGraph) stateOf(q Ref) (State, bool) {
	ji := g.jobs[q.Job]
	if ji == nil || q.Seq < 0 || q.Seq >= ji.n {
		return Wait, false
	}
	return ji.states[q.Seq], true
}

// compOf returns q's gating component, or nil.
func (g *refGraph) compOf(q Ref) *refComponent {
	ji := g.jobs[q.Job]
	if ji == nil || q.Seq < 0 || q.Seq >= ji.n {
		return nil
	}
	return ji.comps[q.Seq]
}

// AddJobWithAtoms registers an ordered job whose per-query atom footprints
// are known up front: atoms[s] lists the atoms query s accesses (order
// irrelevant; duplicates harmless). The job enters the inverted atom
// index, and its sharing partners are discovered by a single pass over the
// index — one postings lookup per atom — instead of one set-intersection
// probe per query pair, so admission cost scales with actual sharing
// rather than with the number of registered queries.
func (g *refGraph) AddJobWithAtoms(id int64, atoms [][]store.AtomID) error {
	return g.addJob(id, len(atoms), atoms)
}

func (g *refGraph) addJob(id int64, n int, atoms [][]store.AtomID) error {
	if _, dup := g.jobs[id]; dup {
		return fmt.Errorf("jobgraph: job %d already registered", id)
	}
	if n <= 0 {
		return fmt.Errorf("jobgraph: job %d has no queries", id)
	}
	ji := &refJobInfo{
		n:      n,
		states: make([]State, n),
		comps:  make([]*refComponent, n),
		atoms:  atoms,
	}
	ji.states[0] = Ready
	g.jobs[id] = ji
	g.jobSeq = append(g.jobSeq, id)
	for s, as := range atoms {
		for _, a := range as {
			g.postings[a] = append(g.postings[a], Ref{Job: id, Seq: s})
		}
	}
	g.touched = g.touched[:0]
	g.mergeJob(id)
	// Incremental propagation: the only queries the registration can have
	// made promotable are the new job's first query (born Ready) and the
	// Ready members of components whose membership just changed. Promoting
	// a Ready query to Queue never enables further promotions (gating only
	// requires partners to have reached Ready), so one pass suffices.
	g.work = g.work[:0]
	g.work = append(g.work, Ref{Job: id, Seq: 0})
	for _, c := range g.touched {
		g.work = append(g.work, c.members...)
	}
	g.promote(g.work)
	return nil
}

// mergeJob admits gating edges between the new job and every previously
// registered job, taking partner jobs in decreasing order of alignment
// size (the greedy merge of §IV.B) and admitting each job's edges in
// precedence order. The sharing relation comes from one pass over the
// inverted index.
func (g *refGraph) mergeJob(newJob int64) {
	ji := g.jobs[newJob]
	type cand struct {
		partner int64
		pairs   []Pair // SeqA = new job, SeqB = partner
	}
	var cands []cand
	// Single sweep over the new job's atoms: every postings hit marks one
	// shared (new-seq, partner-seq) cell of the pairwise DP's share
	// relation. The alignment then reads the marks in O(1) per cell.
	marks := make(map[int64]map[int]bool)
	for i, as := range ji.atoms {
		for _, a := range as {
			for _, ref := range g.postings[a] {
				if ref.Job == newJob {
					continue
				}
				pj := g.jobs[ref.Job]
				m := marks[ref.Job]
				if m == nil {
					m = make(map[int]bool)
					marks[ref.Job] = m
				}
				m[i*pj.n+ref.Seq] = true
			}
		}
	}
	for _, other := range g.jobSeq {
		if other == newJob {
			continue
		}
		pj := g.jobs[other]
		var pairs []Pair
		m := marks[other]
		if len(m) == 0 {
			continue
		}
		// Orient the DP with the smaller job ID as the A side, so that
		// traceback tie-breaks do not depend on which job is being merged.
		nB := pj.n
		if newJob < other {
			g.al.Begin(nB)
			for i := 0; i < ji.n; i++ {
				base := i * nB
				g.al.AppendRow(func(j int) bool { return m[base+j] })
			}
			pairs = g.al.Pairs()
		} else {
			g.al.Begin(ji.n)
			for j := 0; j < nB; j++ {
				j := j
				g.al.AppendRow(func(i int) bool { return m[i*nB+j] })
			}
			pairs = g.al.Pairs()
			for k := range pairs {
				pairs[k].SeqA, pairs[k].SeqB = pairs[k].SeqB, pairs[k].SeqA
			}
		}
		if len(pairs) > 0 {
			cands = append(cands, cand{partner: other, pairs: pairs})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if len(cands[i].pairs) != len(cands[j].pairs) {
			return len(cands[i].pairs) > len(cands[j].pairs)
		}
		return cands[i].partner < cands[j].partner
	})
	for _, c := range cands {
		for _, p := range c.pairs {
			g.admitEdge(Ref{Job: newJob, Seq: p.SeqA}, Ref{Job: c.partner, Seq: p.SeqB})
		}
	}
}

// levelBefore returns 1 + the highest gating level among gated queries of
// job j strictly before seq — the minimum level a new gating edge at seq
// could take (the MaxGatNum computation of Fig. 4).
func (g *refGraph) levelBefore(j int64, seq int) int {
	max := 0
	for _, q := range g.jobs[j].gated {
		if q.Seq >= seq {
			break
		}
		if lvl := g.compOf(q).level; lvl >= max {
			max = lvl
		}
	}
	return max + 1
}

// levelAfterBound returns the lowest gating level among gated queries of
// job j strictly after seq, or -1 if none; a component containing (j, seq)
// must sit strictly below this level.
func (g *refGraph) levelAfterBound(j int64, seq int) int {
	for _, q := range g.jobs[j].gated {
		if q.Seq > seq {
			return g.compOf(q).level
		}
	}
	return -1
}

// admitEdge attempts to admit a gating edge between u (a query of the job
// being merged) and v (a query of an already-merged job), applying the
// feasibility checks of Fig. 4:
//
//   - transitivity: u joins v's whole component (co-scheduling is
//     transitive), so the checks run against every member;
//   - one gating edge per query per job pair, and no crossing edges
//     between any job pair (precedence consistency, lines 10–13);
//   - no scheduling deadlock: gating levels must remain strictly
//     increasing along every job (the gating-number check of line 9).
//
// It reports whether the edge was admitted.
func (g *refGraph) admitEdge(u, v Ref) bool {
	cu, cv := g.compOf(u), g.compOf(v)
	if cu != nil && cu == cv {
		return true // already co-scheduled
	}
	// Gather the would-be combined membership.
	membersOf := func(r Ref, c *refComponent) []Ref {
		if c != nil {
			return c.members
		}
		return []Ref{r}
	}
	mu, mv := membersOf(u, cu), membersOf(v, cv)

	// A component may contain at most one query per job: co-scheduling two
	// ordered queries of the same job is an immediate deadlock.
	jobs := make(map[int64]int, len(mu)+len(mv))
	for _, m := range mu {
		jobs[m.Job] = m.Seq
	}
	for _, m := range mv {
		if _, clash := jobs[m.Job]; clash {
			return g.rejectEdge(u, v)
		}
		jobs[m.Job] = m.Seq
	}

	// Crossing check: for every pair of jobs now linked through the
	// combined component, the set of co-scheduling pairs across all
	// components must remain monotone (non-crossing). It suffices to check
	// each new cross-job pair (a from mu, b from mv) against existing
	// components containing both jobs.
	for _, a := range mu {
		for _, b := range mv {
			if g.wouldCross(a, b) {
				g.crossings++
				return g.rejectEdge(u, v)
			}
		}
	}

	// Level feasibility (gating numbers). Every member imposes a lower
	// bound (strictly above all gated predecessors in its job) and an
	// upper bound (strictly below all gated successors).
	lower := 0
	upper := 1 << 30
	all := make([]Ref, 0, len(mu)+len(mv))
	all = append(all, mu...)
	all = append(all, mv...)
	for _, m := range all {
		if lb := g.levelBefore(m.Job, m.Seq); lb > lower {
			lower = lb
		}
		if ub := g.levelAfterBound(m.Job, m.Seq); ub >= 0 && ub < upper {
			upper = ub
		}
	}
	level := lower
	// Existing components have committed levels; they cannot move (their
	// jobs' later edges were admitted against them).
	switch {
	case cu != nil && cv != nil:
		if cu.level != cv.level {
			return g.rejectEdge(u, v)
		}
		level = cu.level
	case cu != nil:
		if cu.level < lower {
			return g.rejectEdge(u, v)
		}
		level = cu.level
	case cv != nil:
		if cv.level < lower {
			return g.rejectEdge(u, v)
		}
		level = cv.level
	}
	if level >= upper {
		return g.rejectEdge(u, v)
	}

	// Admit: union into one component at the agreed level.
	merged := &refComponent{members: all, level: level}
	sort.Slice(merged.members, func(i, j int) bool {
		if merged.members[i].Job != merged.members[j].Job {
			return merged.members[i].Job < merged.members[j].Job
		}
		return merged.members[i].Seq < merged.members[j].Seq
	})
	for _, m := range merged.members {
		mi := g.jobs[m.Job]
		if mi.comps[m.Seq] == nil {
			g.insertGated(m)
		}
		mi.comps[m.Seq] = merged
	}
	g.touched = append(g.touched, merged)
	g.admitted++
	if g.obs != nil {
		g.obs(true, u, v)
	}
	return true
}

// rejectEdge counts and reports one refused gating edge.
func (g *refGraph) rejectEdge(u, v Ref) bool {
	g.rejected++
	if g.obs != nil {
		g.obs(false, u, v)
	}
	return false
}

// wouldCross reports whether co-scheduling a with b would cross an
// existing co-scheduling pair between their jobs, or duplicate an edge on
// either query for that job pair.
func (g *refGraph) wouldCross(a, b Ref) bool {
	if a.Job == b.Job {
		return true
	}
	// Scan gated queries of job a; those whose component also holds a
	// query of job b define the existing pairs.
	for _, qa := range g.jobs[a.Job].gated {
		c := g.compOf(qa)
		for _, m := range c.members {
			if m.Job != b.Job {
				continue
			}
			// Existing pair (qa.Seq, m.Seq) vs candidate (a.Seq, b.Seq).
			if qa.Seq == a.Seq || m.Seq == b.Seq {
				return true // second edge on the same query for this job pair
			}
			if (qa.Seq < a.Seq) != (m.Seq < b.Seq) {
				return true // crossing
			}
		}
	}
	return false
}

// insertGated records that q now has gating edges, keeping the per-job
// list sorted by sequence.
func (g *refGraph) insertGated(q Ref) {
	ji := g.jobs[q.Job]
	lst := ji.gated
	i := sort.Search(len(lst), func(i int) bool { return lst[i].Seq >= q.Seq })
	lst = append(lst, Ref{})
	copy(lst[i+1:], lst[i:])
	lst[i] = q
	ji.gated = lst
}

// GatingNumber returns G(q): the gating level of q's component, or 0 if q
// has no gating edges.
func (g *refGraph) GatingNumber(q Ref) int {
	if c := g.compOf(q); c != nil {
		return c.level
	}
	return 0
}

// Partners returns the queries co-scheduled with q (its component minus
// itself), in deterministic order. The slice is freshly allocated; hot
// paths should prefer EachPartner.
func (g *refGraph) Partners(q Ref) []Ref {
	c := g.compOf(q)
	if c == nil {
		return nil
	}
	out := make([]Ref, 0, len(c.members)-1)
	for _, m := range c.members {
		if m != q {
			out = append(out, m)
		}
	}
	return out
}

// EachPartner calls fn for every query co-scheduled with q, in
// deterministic (job, seq) order, stopping early when fn returns false.
// It allocates nothing.
func (g *refGraph) EachPartner(q Ref, fn func(Ref) bool) {
	c := g.compOf(q)
	if c == nil {
		return
	}
	for _, m := range c.members {
		if m != q && !fn(m) {
			return
		}
	}
}

// State returns the scheduling state of q.
func (g *refGraph) State(q Ref) State {
	st, _ := g.stateOf(q)
	return st
}

// MarkDone records the completion of q, releases its successor from WAIT,
// and propagates gating releases. Marking an unknown or non-QUEUE query
// done is a programming error in the engine and panics.
func (g *refGraph) MarkDone(q Ref) {
	ji := g.jobs[q.Job]
	if ji == nil || q.Seq < 0 || q.Seq >= ji.n {
		panic(fmt.Sprintf("jobgraph: MarkDone on unknown query %v", q))
	}
	if st := ji.states[q.Seq]; st != Queue {
		panic(fmt.Sprintf("jobgraph: MarkDone on %v in state %v", q, st))
	}
	ji.states[q.Seq] = Done
	// Incremental propagation: q's own transition (QUEUE→DONE) cannot
	// change anyone's gating satisfaction — both states already count as
	// "reached Ready". Only the successor's WAIT→READY release can, and
	// only for the successor itself and the members of its component.
	if q.Seq+1 >= ji.n || ji.states[q.Seq+1] != Wait {
		return
	}
	succ := Ref{Job: q.Job, Seq: q.Seq + 1}
	ji.states[succ.Seq] = Ready
	g.work = g.work[:0]
	g.work = append(g.work, succ)
	if c := ji.comps[succ.Seq]; c != nil {
		g.work = append(g.work, c.members...)
	}
	g.promote(g.work)
}

// promote moves the given queries from READY to QUEUE where their gating
// constraints are satisfied. Because promotion only raises states that
// already count as "reached Ready" for partners, it can never enable a
// further promotion, so the worklist needs no fixpoint iteration; callers
// just list every query whose satisfaction may have changed. The naive
// full-graph fixpoint this replaces is kept as propagateAll for the
// equivalence tests.
func (g *refGraph) promote(work []Ref) {
	for _, r := range work {
		ji := g.jobs[r.Job]
		if ji == nil || ji.states[r.Seq] != Ready {
			continue
		}
		if g.gatingSatisfied(r) {
			ji.states[r.Seq] = Queue
		}
	}
}

// propagateAll is the reference propagation: sweep every query to a
// fixpoint. Kept only to cross-check the incremental promote in tests.
func (g *refGraph) propagateAll() {
	for {
		changed := false
		for _, jobID := range g.jobSeq {
			ji := g.jobs[jobID]
			for s := 0; s < ji.n; s++ {
				if ji.states[s] != Ready {
					continue
				}
				if g.gatingSatisfied(Ref{Job: jobID, Seq: s}) {
					ji.states[s] = Queue
					changed = true
				}
			}
		}
		if !changed {
			return
		}
	}
}

// gatingSatisfied reports whether every query co-scheduled with q has at
// least reached READY (Done partners count as satisfied: their data
// sharing opportunity has passed).
func (g *refGraph) gatingSatisfied(q Ref) bool {
	c := g.compOf(q)
	if c == nil {
		return true
	}
	for _, m := range c.members {
		if m == q {
			continue
		}
		if st, _ := g.stateOf(m); st < Ready {
			return false
		}
	}
	return true
}

// BlockedBy appends to buf the queries directly holding q back and
// returns the extended slice (empty when q is schedulable, done, or
// unknown): a WAIT query is held by its job predecessor; a READY query
// by the co-scheduled partners that have not yet reached READY
// themselves, in deterministic (job, seq) order. It allocates nothing
// when buf has capacity.
func (g *refGraph) BlockedBy(q Ref, buf []Ref) []Ref {
	st, known := g.stateOf(q)
	if !known {
		return buf
	}
	switch st {
	case Wait:
		return append(buf, Ref{Job: q.Job, Seq: q.Seq - 1})
	case Ready:
		c := g.compOf(q)
		if c == nil {
			return buf
		}
		for _, m := range c.members {
			if m == q {
				continue
			}
			if mst, _ := g.stateOf(m); mst < Ready {
				buf = append(buf, m)
			}
		}
	}
	return buf
}

// Schedulable returns all queries currently in the QUEUE state, ordered by
// (job registration order, sequence).
func (g *refGraph) Schedulable() []Ref {
	var out []Ref
	for _, jobID := range g.jobSeq {
		ji := g.jobs[jobID]
		for s := 0; s < ji.n; s++ {
			if ji.states[s] == Queue {
				out = append(out, Ref{Job: jobID, Seq: s})
			}
		}
	}
	return out
}

// Finished reports whether every query of every registered job is DONE.
func (g *refGraph) Finished() bool {
	for _, jobID := range g.jobSeq {
		ji := g.jobs[jobID]
		for s := 0; s < ji.n; s++ {
			if ji.states[s] != Done {
				return false
			}
		}
	}
	return true
}

// Prune drops completed jobs from the graph (the paper prunes completed
// queries continually to keep the merge phase cheap). A job is dropped
// when all of its queries are DONE and none of its components link to a
// live query. Pruning also retires the job's postings so the inverted
// index tracks only live jobs.
func (g *refGraph) Prune() {
	keep := g.jobSeq[:0]
	for _, jobID := range g.jobSeq {
		ji := g.jobs[jobID]
		done := true
		for s := 0; s < ji.n; s++ {
			if ji.states[s] != Done {
				done = false
				break
			}
		}
		live := false
		if done {
		scan:
			for _, q := range ji.gated {
				for _, m := range g.compOf(q).members {
					// A member with no live record was pruned earlier, which
					// implies it was already Done.
					if st, known := g.stateOf(m); known && st != Done {
						live = true
						break scan
					}
				}
			}
		}
		if done && !live {
			for _, as := range ji.atoms {
				for _, a := range as {
					refs := g.postings[a]
					for k := 0; k < len(refs); {
						if refs[k].Job == jobID {
							refs[k] = refs[len(refs)-1]
							refs = refs[:len(refs)-1]
						} else {
							k++
						}
					}
					if len(refs) == 0 {
						delete(g.postings, a)
					} else {
						g.postings[a] = refs
					}
				}
			}
			// The one edit to this reference: detach the job's queries from
			// the components that survive through another job, as the oracle's
			// ModelGraph does. The shipped code left them in, and the next
			// admission against such a component dereferenced the pruned job
			// (TestPruneThenAdmit).
			for _, q := range ji.gated {
				c := g.compOf(q)
				for k, m := range c.members {
					if m == q {
						c.members = append(c.members[:k], c.members[k+1:]...)
						break
					}
				}
			}
			delete(g.jobs, jobID)
			continue
		}
		keep = append(keep, jobID)
	}
	g.jobSeq = keep
}

// refAligner runs the Needleman–Wunsch global alignment of §IV.B
// incrementally, one row (one query of job A) at a time, against a fixed
// job B. Because each new row depends only on the previous one, extending
// the alignment with a further query never recomputes earlier rows — this
// is the append-row update the incremental merge path uses, and it lets
// the graph admit a job against the already-admitted run without
// re-running any pairwise DP from scratch. The DP matrix and the share
// bits are kept in flat reusable arenas, so repeated alignments allocate
// only for the returned pairs.
//
// The zero refAligner is ready for use: call Begin, then AppendRow for each
// query of job A in sequence order, then Pairs.
type refAligner struct {
	lenB int
	rows int     // rows appended so far (queries of job A)
	m    []int32 // (rows+1)×(lenB+1) score matrix, row-major, borders included
	sh   []bool  // rows×lenB share bits, recorded during the forward pass
}

// Begin starts a fresh alignment against a job of lenB queries, reusing
// the internal arenas.
func (al *refAligner) Begin(lenB int) {
	al.lenB = lenB
	al.rows = 0
	need := lenB + 1
	if cap(al.m) < need {
		al.m = make([]int32, need)
	}
	al.m = al.m[:need]
	for j := range al.m {
		al.m[j] = 0
	}
	al.sh = al.sh[:0]
}

// AppendRow extends the alignment with the next query of job A.
// share(j) reports whether that query and query j of job B exhibit data
// sharing (score 1); skipping a query costs nothing (gap penalty 0), as
// in the paper. The share answers are recorded so the traceback never
// re-asks.
func (al *refAligner) AppendRow(share func(j int) bool) {
	i := al.rows + 1
	w := al.lenB + 1
	need := (i + 1) * w
	for len(al.m) < need {
		al.m = append(al.m, 0)
	}
	prev := al.m[(i-1)*w : i*w]
	row := al.m[i*w : (i+1)*w]
	row[0] = 0
	for j := 1; j <= al.lenB; j++ {
		s := share(j - 1)
		al.sh = append(al.sh, s)
		best := prev[j-1]
		if s {
			best++
		}
		if prev[j] > best {
			best = prev[j]
		}
		if row[j-1] > best {
			best = row[j-1]
		}
		row[j] = best
	}
	al.rows = i
}

// Pairs runs the traceback over the accumulated rows and returns the
// aligned sharing pairs in increasing sequence order. By construction the
// pairs are non-crossing and each query appears in at most one pair —
// exactly the feasibility conditions for gating edges between one pair of
// jobs. The returned slice is freshly allocated (callers retain it).
func (al *refAligner) Pairs() []Pair {
	if al.rows == 0 || al.lenB == 0 {
		return nil
	}
	w := al.lenB + 1
	// Traceback, preferring matched diagonals so every unit of score
	// becomes a gating edge.
	var rev []Pair
	i, j := al.rows, al.lenB
	for i > 0 && j > 0 {
		s := int32(0)
		if al.sh[(i-1)*al.lenB+(j-1)] {
			s = 1
		}
		switch {
		case s == 1 && al.m[i*w+j] == al.m[(i-1)*w+(j-1)]+1:
			rev = append(rev, Pair{SeqA: i - 1, SeqB: j - 1})
			i--
			j--
		case al.m[i*w+j] == al.m[(i-1)*w+j]:
			i--
		case al.m[i*w+j] == al.m[i*w+(j-1)]:
			j--
		default: // unmatched diagonal (s == 0, equal scores)
			i--
			j--
		}
	}
	out := make([]Pair, len(rev))
	for k, p := range rev {
		out[len(rev)-1-k] = p
	}
	return out
}

// refAlign runs the full Needleman–Wunsch alignment between two jobs of lenA
// and lenB queries in one call. share(i, j) reports whether query i of
// job A and query j of job B exhibit data sharing. It is the batch
// convenience over refAligner's append-row interface and computes the
// identical alignment.
func refAlign(lenA, lenB int, share func(i, j int) bool) []Pair {
	if lenA == 0 || lenB == 0 {
		return nil
	}
	var al refAligner
	al.Begin(lenB)
	for i := 0; i < lenA; i++ {
		al.AppendRow(func(j int) bool { return share(i, j) })
	}
	return al.Pairs()
}
