package oracle

import (
	"fmt"
	"slices"
	"sort"

	"jaws/internal/jobgraph"
	"jaws/internal/oracle/difftest"
	"jaws/internal/store"
)

// ModelGraph is the reference model of job-aware gated execution (§IV,
// Fig. 4), restated from the paper rather than from internal/jobgraph: a
// flat list of components, states recomputed by scanning, and the three
// feasibility checks written as separate predicates. It intentionally
// shares no code with the production graph beyond the exported Ref/State
// vocabulary.
type ModelGraph struct {
	shares func(a, b jobgraph.Ref) bool
	jobs   []int64 // registration order
	jobLen map[int64]int
	state  map[jobgraph.Ref]jobgraph.State
	comps  []*modelComponent
	byRef  map[jobgraph.Ref]*modelComponent
	// arrived holds the live queries MarkArrived was told of.
	arrived map[jobgraph.Ref]bool

	admitted, rejected int
	// crossings counts the edges crosses refused. jobgraph.Graph has no
	// such scan — its tie and level checks refuse the same edges — so each
	// is a case the two rule alike for different reasons.
	crossings int

	// Observer, when set, is told the outcome of every candidate edge the
	// feasibility checks ruled on, as jobgraph.Graph.SetObserver's is.
	Observer func(admitted bool, u, v jobgraph.Ref)
}

// modelComponent is one co-scheduling group and its gating number.
type modelComponent struct {
	members []jobgraph.Ref // sorted (Job, Seq)
	level   int
}

// NewModelGraph builds the reference gating graph. shares reports data
// sharing between queries of different jobs, A(a) ∩ A(b) ≠ ∅, which
// jobgraph.Graph derives from the atom lists of AddJobWithAtoms.
func NewModelGraph(shares func(a, b jobgraph.Ref) bool) *ModelGraph {
	return &ModelGraph{
		shares:  shares,
		jobLen:  make(map[int64]int),
		state:   make(map[jobgraph.Ref]jobgraph.State),
		byRef:   make(map[jobgraph.Ref]*modelComponent),
		arrived: make(map[jobgraph.Ref]bool),
	}
}

// AddJob registers an ordered job of n queries and merges its gating
// edges: align against every prior job, then admit candidate edges taking
// the largest alignments first (ties to the lower job id), each job's
// pairs in precedence order. A job ID already registered, or a job of no
// queries, is refused with an error and changes nothing.
func (g *ModelGraph) AddJob(id int64, n int) error {
	if _, dup := g.jobLen[id]; dup {
		return fmt.Errorf("oracle: job %d already registered", id)
	}
	if n <= 0 {
		return fmt.Errorf("oracle: job %d has no queries", id)
	}
	g.jobLen[id] = n
	g.jobs = append(g.jobs, id)
	g.state[jobgraph.Ref{Job: id, Seq: 0}] = jobgraph.Ready
	for s := 1; s < n; s++ {
		g.state[jobgraph.Ref{Job: id, Seq: s}] = jobgraph.Wait
	}

	type cand struct {
		partner int64
		pairs   []jobgraph.Pair // SeqA in the new job, SeqB in partner
	}
	var cands []cand
	for _, other := range g.jobs {
		if other == id {
			continue
		}
		if pairs := g.align(id, other); len(pairs) > 0 {
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
			g.admit(jobgraph.Ref{Job: id, Seq: p.SeqA}, jobgraph.Ref{Job: c.partner, Seq: p.SeqB})
		}
	}
	g.propagate()
	return nil
}

// Registered reports whether job id is registered and not yet pruned.
func (g *ModelGraph) Registered(id int64) bool {
	_, ok := g.jobLen[id]
	return ok
}

// align computes the Needleman–Wunsch alignment between jobs a and b with
// the model's own DP (ModelAlign), fresh each call. Because the production
// graph canonicalizes each pair to (lower id, higher id) before aligning,
// the model does too.
func (g *ModelGraph) align(a, b int64) []jobgraph.Pair {
	lo, hi, flip := a, b, false
	if a > b {
		lo, hi, flip = b, a, true
	}
	pairs := ModelAlign(g.jobLen[lo], g.jobLen[hi], func(i, j int) bool {
		return g.shares(jobgraph.Ref{Job: lo, Seq: i}, jobgraph.Ref{Job: hi, Seq: j})
	})
	if !flip {
		return pairs
	}
	out := make([]jobgraph.Pair, len(pairs))
	for i, p := range pairs {
		out[i] = jobgraph.Pair{SeqA: p.SeqB, SeqB: p.SeqA}
	}
	return out
}

// ModelAlign is the reference restatement of §IV.B's global alignment,
// independent of jobgraph.Aligner: match scores 1, gaps cost 0, and the
// traceback resolves ties by preferring a scoring diagonal, then dropping
// the A-side query, then the B-side one — the order that turns every unit
// of score into a gating edge and that the production DP documents.
// jobgraph's TestAlignerAppendRowMatchesAlign holds the Aligner to it on
// alignments longer than the graph tests' jobs.
func ModelAlign(lenA, lenB int, share func(i, j int) bool) []jobgraph.Pair {
	score := func(i, j int) int {
		if share(i, j) {
			return 1
		}
		return 0
	}
	dp := make(map[[2]int]int, (lenA+1)*(lenB+1))
	for i := 1; i <= lenA; i++ {
		for j := 1; j <= lenB; j++ {
			best := dp[[2]int{i - 1, j - 1}] + score(i-1, j-1)
			if v := dp[[2]int{i - 1, j}]; v > best {
				best = v
			}
			if v := dp[[2]int{i, j - 1}]; v > best {
				best = v
			}
			dp[[2]int{i, j}] = best
		}
	}
	var pairs []jobgraph.Pair
	for i, j := lenA, lenB; i > 0 && j > 0; {
		switch {
		case score(i-1, j-1) == 1 && dp[[2]int{i, j}] == dp[[2]int{i - 1, j - 1}]+1:
			pairs = append(pairs, jobgraph.Pair{SeqA: i - 1, SeqB: j - 1})
			i, j = i-1, j-1
		case dp[[2]int{i, j}] == dp[[2]int{i - 1, j}]:
			i--
		case dp[[2]int{i, j}] == dp[[2]int{i, j - 1}]:
			j--
		default:
			i, j = i-1, j-1
		}
	}
	for l, r := 0, len(pairs)-1; l < r; l, r = l+1, r-1 {
		pairs[l], pairs[r] = pairs[r], pairs[l]
	}
	return pairs
}

// members returns the would-be component of r: its current component's
// members, or just itself.
func (g *ModelGraph) members(r jobgraph.Ref) []jobgraph.Ref {
	if c := g.byRef[r]; c != nil {
		return c.members
	}
	return []jobgraph.Ref{r}
}

// gatedOf lists job j's queries that carry gating edges, in seq order.
func (g *ModelGraph) gatedOf(j int64) []jobgraph.Ref {
	var out []jobgraph.Ref
	for s := 0; s < g.jobLen[j]; s++ {
		r := jobgraph.Ref{Job: j, Seq: s}
		if g.byRef[r] != nil {
			out = append(out, r)
		}
	}
	return out
}

// admit rules on a candidate edge (u, v) and reports the ruling. Queries
// already co-scheduled need none.
func (g *ModelGraph) admit(u, v jobgraph.Ref) bool {
	if cu := g.byRef[u]; cu != nil && cu == g.byRef[v] {
		return true
	}
	ok := g.feasible(u, v)
	if g.Observer != nil {
		g.Observer(ok, u, v)
	}
	return ok
}

// feasible applies Fig. 4's feasibility checks to a candidate edge (u, v)
// between queries of different components and merges the two when all
// pass.
func (g *ModelGraph) feasible(u, v jobgraph.Ref) bool {
	cu, cv := g.byRef[u], g.byRef[v]
	mu, mv := g.members(u), g.members(v)
	union := append(append([]jobgraph.Ref{}, mu...), mv...)

	if g.duplicatesJob(mu, mv) {
		g.rejected++
		return false
	}
	if g.crosses(mu, mv) {
		g.crossings++
		g.rejected++
		return false
	}

	// Gating numbers: the level must exceed every member's gated
	// predecessors and sit strictly below every member's gated successors;
	// committed component levels cannot move. Levels start at 1 — Fig. 4's
	// MaxGatNum is 1 + the highest predecessor level, 0 predecessors
	// included.
	lower, upper := 1, 1<<30
	for _, m := range union {
		for _, q := range g.gatedOf(m.Job) {
			lvl := g.byRef[q].level
			if q.Seq < m.Seq && lvl+1 > lower {
				lower = lvl + 1
			}
			if q.Seq > m.Seq && lvl < upper {
				upper = lvl
			}
		}
	}
	level := lower
	switch {
	case cu != nil && cv != nil:
		if cu.level != cv.level {
			g.rejected++
			return false
		}
		level = cu.level
	case cu != nil:
		if cu.level < lower {
			g.rejected++
			return false
		}
		level = cu.level
	case cv != nil:
		if cv.level < lower {
			g.rejected++
			return false
		}
		level = cv.level
	}
	if level >= upper {
		g.rejected++
		return false
	}

	sort.Slice(union, func(i, j int) bool {
		if union[i].Job != union[j].Job {
			return union[i].Job < union[j].Job
		}
		return union[i].Seq < union[j].Seq
	})
	merged := &modelComponent{members: union, level: level}
	g.removeComp(cu)
	g.removeComp(cv)
	g.comps = append(g.comps, merged)
	for _, m := range union {
		g.byRef[m] = merged
	}
	g.admitted++
	return true
}

// duplicatesJob reports whether the union of mu and mv would co-schedule
// two queries of the same job (an immediate deadlock).
func (g *ModelGraph) duplicatesJob(mu, mv []jobgraph.Ref) bool {
	seen := make(map[int64]bool, len(mu))
	for _, m := range mu {
		seen[m.Job] = true
	}
	for _, m := range mv {
		if seen[m.Job] {
			return true
		}
		seen[m.Job] = true
	}
	return false
}

// crosses reports whether merging would create a second gating edge on the
// same query for some job pair, or cross an existing pair (lines 10–13 of
// Fig. 4): for jobs A and B, the pairs (seqA, seqB) must stay monotone.
func (g *ModelGraph) crosses(mu, mv []jobgraph.Ref) bool {
	for _, a := range mu {
		for _, b := range mv {
			if a.Job == b.Job {
				return true
			}
			for _, qa := range g.gatedOf(a.Job) {
				for _, m := range g.byRef[qa].members {
					if m.Job != b.Job {
						continue
					}
					if qa.Seq == a.Seq || m.Seq == b.Seq {
						return true
					}
					if (qa.Seq < a.Seq) != (m.Seq < b.Seq) {
						return true
					}
				}
			}
		}
	}
	return false
}

func (g *ModelGraph) removeComp(c *modelComponent) {
	if c == nil {
		return
	}
	for i, cc := range g.comps {
		if cc == c {
			g.comps = append(g.comps[:i], g.comps[i+1:]...)
			return
		}
	}
}

// MarkDone completes q, releases its precedence successor, and
// re-propagates gating releases.
func (g *ModelGraph) MarkDone(q jobgraph.Ref) {
	g.state[q] = jobgraph.Done
	succ := jobgraph.Ref{Job: q.Job, Seq: q.Seq + 1}
	if st, ok := g.state[succ]; ok && st == jobgraph.Wait {
		g.state[succ] = jobgraph.Ready
	}
	g.propagate()
}

// propagate promotes READY queries whose partners have all reached at
// least READY, to a fixpoint.
func (g *ModelGraph) propagate() {
	for changed := true; changed; {
		changed = false
		for _, jobID := range g.jobs {
			for s := 0; s < g.jobLen[jobID]; s++ {
				q := jobgraph.Ref{Job: jobID, Seq: s}
				if g.state[q] != jobgraph.Ready {
					continue
				}
				ok := true
				for _, m := range g.members(q) {
					if m != q && g.state[m] < jobgraph.Ready {
						ok = false
						break
					}
				}
				if ok {
					g.state[q] = jobgraph.Queue
					changed = true
				}
			}
		}
	}
}

// State returns the scheduling state of q.
func (g *ModelGraph) State(q jobgraph.Ref) jobgraph.State { return g.state[q] }

// GatingNumber returns the gating level of q's component (0 if ungated).
func (g *ModelGraph) GatingNumber(q jobgraph.Ref) int {
	if c := g.byRef[q]; c != nil {
		return c.level
	}
	return 0
}

// Partners returns q's co-scheduled queries in (Job, Seq) order.
func (g *ModelGraph) Partners(q jobgraph.Ref) []jobgraph.Ref {
	c := g.byRef[q]
	if c == nil {
		return nil
	}
	var out []jobgraph.Ref
	for _, m := range c.members {
		if m != q {
			out = append(out, m)
		}
	}
	return out
}

// Schedulable lists the QUEUE queries in (registration order, seq) order.
func (g *ModelGraph) Schedulable() []jobgraph.Ref {
	var out []jobgraph.Ref
	for _, jobID := range g.jobs {
		for s := 0; s < g.jobLen[jobID]; s++ {
			q := jobgraph.Ref{Job: jobID, Seq: s}
			if g.state[q] == jobgraph.Queue {
				out = append(out, q)
			}
		}
	}
	return out
}

// Finished reports whether every registered query is DONE.
func (g *ModelGraph) Finished() bool {
	for _, jobID := range g.jobs {
		for s := 0; s < g.jobLen[jobID]; s++ {
			if g.state[jobgraph.Ref{Job: jobID, Seq: s}] != jobgraph.Done {
				return false
			}
		}
	}
	return true
}

// EdgesAdmitted reports the number of admitted gating links.
func (g *ModelGraph) EdgesAdmitted() int { return g.admitted }

// EdgesRejected reports the number of refused candidate links.
func (g *ModelGraph) EdgesRejected() int { return g.rejected }

// Crossings reports how many of the refused links crosses refused: a
// second edge on a query for a job pair, or a crossing pair.
func (g *ModelGraph) Crossings() int { return g.crossings }

// BlockedBy lists what holds q back: a WAIT query its job predecessor, a
// READY one its partners short of READY; nothing for any other query.
func (g *ModelGraph) BlockedBy(q jobgraph.Ref) []jobgraph.Ref {
	var out []jobgraph.Ref
	switch st, live := g.state[q]; {
	case live && st == jobgraph.Wait:
		out = append(out, jobgraph.Ref{Job: q.Job, Seq: q.Seq - 1})
	case live && st == jobgraph.Ready:
		for _, p := range g.Partners(q) {
			if g.state[p] < jobgraph.Ready {
				out = append(out, p)
			}
		}
	}
	return out
}

// MarkArrived records that the live query q has reached the scheduler.
func (g *ModelGraph) MarkArrived(q jobgraph.Ref) {
	if _, live := g.state[q]; live {
		g.arrived[q] = true
	}
}

// Dispatchable reports whether q may enter the workload queues: atomic
// group admission (§IV) lets a QUEUE query go once every partner that is
// not DONE has arrived, so the whole group is enqueued together.
func (g *ModelGraph) Dispatchable(q jobgraph.Ref) bool {
	if g.state[q] != jobgraph.Queue {
		return false
	}
	for _, p := range g.Partners(q) {
		if g.state[p] != jobgraph.Done && !g.arrived[p] {
			return false
		}
	}
	return true
}

// Prune drops jobs whose queries are all DONE and whose components hold no
// live query, mirroring Graph.Prune's contract.
func (g *ModelGraph) Prune() {
	keep := g.jobs[:0]
	for _, jobID := range g.jobs {
		n := g.jobLen[jobID]
		done := true
		for s := 0; s < n; s++ {
			if g.state[jobgraph.Ref{Job: jobID, Seq: s}] != jobgraph.Done {
				done = false
				break
			}
		}
		live := false
		if done {
			for _, q := range g.gatedOf(jobID) {
				for _, m := range g.byRef[q].members {
					if st, known := g.state[m]; known && st != jobgraph.Done {
						live = true
						break
					}
				}
				if live {
					break
				}
			}
		}
		if done && !live {
			for s := 0; s < n; s++ {
				q := jobgraph.Ref{Job: jobID, Seq: s}
				if c := g.byRef[q]; c != nil {
					// Components may span pruned and live jobs; only detach
					// this job's refs, dropping the component when empty.
					g.detach(c, q)
				}
				delete(g.state, q)
				delete(g.byRef, q)
				delete(g.arrived, q)
			}
			delete(g.jobLen, jobID)
			continue
		}
		keep = append(keep, jobID)
	}
	g.jobs = keep
}

// detach removes q from component c's member list.
func (g *ModelGraph) detach(c *modelComponent, q jobgraph.Ref) {
	for i, m := range c.members {
		if m == q {
			c.members = append(c.members[:i], c.members[i+1:]...)
			break
		}
	}
	if len(c.members) == 0 {
		g.removeComp(c)
	}
}

// GatingPair is the job graph's one differential driver: a production
// jobgraph.Graph fed through AddJobWithAtoms — the path the engine takes
// — beside a ModelGraph fed the same jobs, whose sharing test is the
// intersection of the same atom lists. Every op applies to both and then
// compares them; the first difference fails the test.
type GatingPair struct {
	G *jobgraph.Graph
	M *ModelGraph
	// Check, when set, runs on G after every comparison: invariants of the
	// graph's own tables, which only its package can read.
	Check func(*jobgraph.Graph) error

	t     difftest.TB
	atoms map[jobgraph.Ref][]store.AtomID
	// ids lists every job ID ever registered, in first-registration order;
	// longest holds the most queries each was registered with.
	ids     []int64
	longest map[int64]int

	got, want []edgeRuling
}

// edgeRuling is one observer call: a candidate edge and its outcome.
type edgeRuling struct {
	admitted bool
	u, v     jobgraph.Ref
}

// NewGatingPair returns an empty graph and model that report to t.
func NewGatingPair(t difftest.TB) *GatingPair {
	p := &GatingPair{
		G:       jobgraph.New(nil),
		t:       t,
		atoms:   make(map[jobgraph.Ref][]store.AtomID),
		longest: make(map[int64]int),
	}
	p.M = NewModelGraph(func(x, y jobgraph.Ref) bool {
		for _, a := range p.atoms[x] {
			if slices.Contains(p.atoms[y], a) {
				return true
			}
		}
		return false
	})
	p.G.SetObserver(func(ok bool, u, v jobgraph.Ref) { p.got = append(p.got, edgeRuling{ok, u, v}) })
	p.M.Observer = func(ok bool, u, v jobgraph.Ref) { p.want = append(p.want, edgeRuling{ok, u, v}) }
	return p
}

// Register adds job id, with the atom lists of its queries, to both and
// compares. It returns the graph's error, which the model must match (a
// registered ID or a job of no queries is refused). The lists are cleared
// once the graph has them, so a graph that kept them instead of a copy
// shows.
func (p *GatingPair) Register(id int64, lists [][]store.AtomID) error {
	p.t.Helper()
	if !p.M.Registered(id) {
		for s := range lists {
			p.atoms[jobgraph.Ref{Job: id, Seq: s}] = slices.Clone(lists[s])
		}
	}
	err := p.G.AddJobWithAtoms(id, lists)
	for s := range lists {
		clear(lists[s])
	}
	if want := p.M.AddJob(id, len(lists)); (err == nil) != (want == nil) {
		p.t.Fatalf("registering job %d: graph %v, model %v", id, err, want)
	}
	if err == nil {
		if _, seen := p.longest[id]; !seen {
			p.ids = append(p.ids, id)
		}
		p.longest[id] = max(p.longest[id], len(lists))
	}
	p.compare(fmt.Sprintf("registering job %d (%d queries)", id, len(lists)))
	return err
}

// Serve completes the QUEUE query q in both and compares.
func (p *GatingPair) Serve(q jobgraph.Ref) {
	p.t.Helper()
	p.G.MarkDone(q)
	p.M.MarkDone(q)
	p.compare("completing " + q.String())
}

// Arrive marks q arrived in both and compares.
func (p *GatingPair) Arrive(q jobgraph.Ref) {
	p.t.Helper()
	p.G.MarkArrived(q)
	p.M.MarkArrived(q)
	p.compare("arriving " + q.String())
}

// Prune prunes both, compares, and returns how many jobs were dropped.
func (p *GatingPair) Prune() int {
	p.t.Helper()
	before := len(p.M.jobs)
	p.G.Prune()
	p.M.Prune()
	p.compare("pruning")
	return before - len(p.M.jobs)
}

// compare fails the test on the first difference between graph and model:
// the edge rulings since the last comparison, the admitted and rejected
// counts, Finished, Schedulable, Registered for every job ID ever
// registered, and State, GatingNumber, Partners, BlockedBy and
// Dispatchable for each of its queries — pruned ones, seq −1 and one past
// its longest registration included. Then it runs Check.
func (p *GatingPair) compare(after string) {
	p.t.Helper()
	g, m := p.G, p.M
	if !slices.Equal(p.got, p.want) {
		p.t.Fatalf("after %s: edge rulings\n graph %v\n model %v", after, p.got, p.want)
	}
	p.got, p.want = p.got[:0], p.want[:0]
	if g.EdgesAdmitted() != m.EdgesAdmitted() || g.EdgesRejected() != m.EdgesRejected() || g.Finished() != m.Finished() {
		p.t.Fatalf("after %s: admitted %d/%d rejected %d/%d finished %v/%v (graph/model)", after,
			g.EdgesAdmitted(), m.EdgesAdmitted(), g.EdgesRejected(), m.EdgesRejected(), g.Finished(), m.Finished())
	}
	if got, want := g.Schedulable(), m.Schedulable(); !slices.Equal(got, want) {
		p.t.Fatalf("after %s: schedulable %v, model %v", after, got, want)
	}
	var blockers []jobgraph.Ref
	for _, id := range p.ids {
		if g.Registered(id) != m.Registered(id) {
			p.t.Fatalf("after %s: job %d registered %v, model %v", after, id, g.Registered(id), m.Registered(id))
		}
		for s := -1; s <= p.longest[id]; s++ {
			q := jobgraph.Ref{Job: id, Seq: s}
			if g.State(q) != m.State(q) || g.GatingNumber(q) != m.GatingNumber(q) || g.Dispatchable(q) != m.Dispatchable(q) {
				p.t.Fatalf("after %s: %v is %v G=%d dispatchable %v, model %v G=%d %v", after, q,
					g.State(q), g.GatingNumber(q), g.Dispatchable(q), m.State(q), m.GatingNumber(q), m.Dispatchable(q))
			}
			if got, want := g.Partners(q), m.Partners(q); !slices.Equal(got, want) {
				p.t.Fatalf("after %s: partners of %v %v, model %v", after, q, got, want)
			}
			blockers = g.BlockedBy(q, blockers[:0])
			if want := m.BlockedBy(q); !slices.Equal(blockers, want) {
				p.t.Fatalf("after %s: %v blocked by %v, model %v", after, q, blockers, want)
			}
		}
	}
	if p.Check != nil {
		if err := p.Check(g); err != nil {
			p.t.Fatalf("after %s: %v", after, err)
		}
	}
}

// CheckDeadlockFree drives both a production Graph and the model to
// completion by repeatedly serving every schedulable query, verifying at
// each round that (a) the schedulable sets agree, (b) progress is always
// possible while work remains — the gating-number guarantee of Fig. 4 —
// and (c) states and gating numbers agree for every live query. It returns
// the list of divergences found (nil means the graphs agree and drain).
func CheckDeadlockFree(g *jobgraph.Graph, m *ModelGraph) []string {
	var diffs []string
	for round := 0; ; round++ {
		if round > 1<<16 {
			diffs = append(diffs, "gating: no fixpoint after 65536 rounds")
			return diffs
		}
		real := g.Schedulable()
		model := m.Schedulable()
		if !slices.Equal(real, model) {
			diffs = append(diffs, fmt.Sprintf("gating: schedulable sets diverge: real=%v model=%v", real, model))
			return diffs
		}
		if g.Finished() != m.Finished() {
			diffs = append(diffs, "gating: Finished() disagrees")
			return diffs
		}
		if g.Finished() {
			return diffs
		}
		if len(real) == 0 {
			diffs = append(diffs, "gating: deadlock — unfinished graph with empty schedulable set")
			return diffs
		}
		for _, q := range real {
			if gn, mn := g.GatingNumber(q), m.GatingNumber(q); gn != mn {
				diffs = append(diffs, "gating: gating number of "+q.String()+" diverges")
			}
			if !slices.Equal(g.Partners(q), m.Partners(q)) {
				diffs = append(diffs, "gating: partners of "+q.String()+" diverge")
			}
		}
		if len(diffs) > 0 {
			return diffs
		}
		for _, q := range real {
			// Serving can promote later refs of the same round from QUEUE
			// already; MarkDone only on refs still queued.
			if g.State(q) == jobgraph.Queue {
				g.MarkDone(q)
				m.MarkDone(q)
			}
		}
	}
}
