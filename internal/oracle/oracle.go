// Package oracle is the correctness backstop for the JAWS scheduler
// family: a small, obviously-correct executable reference model of the
// paper's scheduling semantics, a differential harness that replays
// recorded workloads through both the model and the production
// internal/sched, internal/jobgraph and internal/cache paths, and a set of
// invariant checkers any test can call.
//
// The models trade every optimization for legibility: plain sorted slices
// instead of hash maps, one loop per rule of the paper, no shared state
// with the production code. Where the production implementation iterates a
// map under a deterministic tie-break, the model iterates a sorted slice
// and relies on order alone; agreement between the two is exactly what the
// differential harness certifies:
//
//   - utility scoring — Eq. 1's workload throughput U_t and Eq. 2's aged
//     metric U_e, including the §V.A adaptive age-bias controller;
//   - LifeRaft's single-best-queue selection and JAWS's two-level
//     time-step/atom batching (Fig. 6), with NoShare's arrival-order
//     baseline;
//   - gated execution (§IV, Fig. 4): alignment, gating-number deadlock
//     checks and precedence consistency (see ModelGraph);
//   - SLRU admission, eviction, and end-of-run promotion (see ModelSLRU).
//
// See diff.go for the recording/replay/shrinking harness and
// invariants.go for the reusable checkers.
package oracle

import (
	"math"
	"sort"
	"time"

	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/store"
)

// Algo names the scheduling algorithm a model reproduces.
type Algo int

const (
	// AlgoNoShare is the arrival-order baseline.
	AlgoNoShare Algo = iota
	// AlgoLifeRaft is aged-utility single-queue selection with fixed α.
	AlgoLifeRaft
	// AlgoJAWS is two-level batching with adaptive starvation resistance.
	AlgoJAWS
)

// String names the algorithm.
func (a Algo) String() string {
	switch a {
	case AlgoNoShare:
		return "NoShare"
	case AlgoLifeRaft:
		return "LifeRaft"
	case AlgoJAWS:
		return "JAWS"
	}
	return "Algo(?)"
}

// Params fixes the scheduler parameters a model (and the production
// scheduler it shadows) runs with.
type Params struct {
	// Cost is the T_b/T_m model of Eq. 1.
	Cost sched.CostModel
	// BatchSize is JAWS's k (ignored by the other algorithms).
	BatchSize int
	// Alpha is LifeRaft's fixed age bias, or JAWS's initial one.
	Alpha float64
	// Adaptive enables the §V.A controller (JAWS only).
	Adaptive bool
	// Policy installs tail policies on JAWS (the zero spec: none), on the
	// production scheduler through sched.PolicySpec.Wrap and on the model
	// as the matching optional steps.
	Policy sched.PolicySpec
	// QoSStretch, when positive, adds proportional completion-time
	// deadlines to JAWS (sched.NewQoS's stretch); QoSHorizon is its
	// look-ahead horizon (≤ 0: the 2 s default).
	QoSStretch float64
	QoSHorizon time.Duration
}

// Model is the oracle-side scheduler interface. Residency for the φ(i)
// term is supplied per decision, because the model holds no cache: the
// harness snapshots the production cache (or the recorded snapshot) and
// hands the same view to both sides.
type Model interface {
	// Enqueue admits one sub-query at virtual time now.
	Enqueue(sq *query.SubQuery, now time.Duration)
	// NextBatch selects and removes the next decision's batches; resident
	// reports cache residency for the φ(i) term (may be nil = all misses).
	NextBatch(now time.Duration, resident func(store.AtomID) bool) []sched.Batch
	// OnRunEnd feeds one adaptation run's performance to the α controller.
	OnRunEnd(rt, tp float64)
	// Alpha reports the current age bias.
	Alpha() float64
	// Pending reports the number of queued sub-queries.
	Pending() int
}

// UtilityModel is the oracle-side counterpart of sched.UtilityProvider:
// reference utility accessors computed by naive rescan over the sorted
// queue list, taking the residency snapshot explicitly (the model holds
// no cache). The differential harness compares these against the
// production scheduler's memoized answers with strict float equality.
type UtilityModel interface {
	// AtomUtility returns Eq. 1's U_t for the atom's pending queue, 0
	// when the atom has no pending work.
	AtomUtility(id store.AtomID, resident func(store.AtomID) bool) float64
	// StepMean returns the mean U_t over the step's pending atoms, 0 when
	// the step has no pending work.
	StepMean(step int, resident func(store.AtomID) bool) float64
	// PendingSteps lists the steps with pending work, ascending.
	PendingSteps() []int
	// PendingAtoms lists every atom with pending work in clustered-index
	// key order.
	PendingAtoms() []store.AtomID
}

// GateAwareModel is the oracle-side counterpart of sched.GateAware: the
// harness installs the same per-query gate source on both sides of a
// differential comparison.
type GateAwareModel interface {
	SetGateSource(fn func(q query.ID) sched.GateState)
}

// NewModel builds the reference model for the algorithm.
func NewModel(a Algo, p Params) Model {
	switch a {
	case AlgoNoShare:
		return &modelNoShare{}
	case AlgoLifeRaft:
		return &modelLifeRaft{cost: p.Cost, alpha: clamp01(p.Alpha)}
	default:
		return newModelJAWS(p)
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// modelQueue is one atom's workload queue: the pending sub-queries, their
// total position count, and the enqueue time of the oldest.
type modelQueue struct {
	atom      store.AtomID
	subs      []*query.SubQuery
	positions int
	oldest    time.Duration
}

// queueList keeps atom queues sorted by clustered-index key, so every
// model iteration is in Morton order by construction.
type queueList struct {
	queues []*modelQueue
	subs   int
}

// add appends sq to its atom's queue, creating the queue (in key order) on
// first contact.
func (l *queueList) add(sq *query.SubQuery, now time.Duration) {
	i := sort.Search(len(l.queues), func(i int) bool {
		return l.queues[i].atom.Key() >= sq.Atom.Key()
	})
	if i == len(l.queues) || l.queues[i].atom != sq.Atom {
		l.queues = append(l.queues, nil)
		copy(l.queues[i+1:], l.queues[i:])
		l.queues[i] = &modelQueue{atom: sq.Atom, oldest: now}
	}
	q := l.queues[i]
	q.subs = append(q.subs, sq)
	q.positions += len(sq.Index)
	l.subs++
}

// take removes queue q and returns it as a batch.
func (l *queueList) take(q *modelQueue) sched.Batch {
	for i, cand := range l.queues {
		if cand == q {
			l.queues = append(l.queues[:i], l.queues[i+1:]...)
			break
		}
	}
	l.subs -= len(q.subs)
	return sched.Batch{Atom: q.atom, SubQueries: q.subs}
}

// steps returns the distinct time steps with pending work, ascending.
func (l *queueList) steps() []int {
	var out []int
	for _, q := range l.queues {
		if n := len(out); n == 0 || out[n-1] != q.atom.Step {
			out = append(out, q.atom.Step)
		}
	}
	sort.Ints(out)
	// The queues are sorted by Key (step-major), so steps already come out
	// ascending; the sort is belt and braces for readability.
	return out
}

// ofStep returns the step's queues in Morton order (a subslice view).
func (l *queueList) ofStep(step int) []*modelQueue {
	var out []*modelQueue
	for _, q := range l.queues {
		if q.atom.Step == step {
			out = append(out, q)
		}
	}
	return out
}

// hasQuery reports whether any queue still holds a sub-query of the query.
func (l *queueList) hasQuery(id query.ID) bool {
	for _, q := range l.queues {
		for _, sq := range q.subs {
			if sq.Query.ID == id {
				return true
			}
		}
	}
	return false
}

// atoms returns every pending atom in key order.
func (l *queueList) atoms() []store.AtomID {
	out := make([]store.AtomID, len(l.queues))
	for i, q := range l.queues {
		out[i] = q.atom
	}
	return out
}

// atomUtility returns the atom's Eq. 1 value, 0 when it has no queue.
func (l *queueList) atomUtility(cost sched.CostModel, id store.AtomID, resident func(store.AtomID) bool) float64 {
	for _, q := range l.queues {
		if q.atom == id {
			return ut(cost, q, resident)
		}
	}
	return 0
}

// stepMean returns the mean Eq. 1 value over the step's queues, summing
// in key-ascending order — the same accumulation order as the production
// buckets, so agreement is bit-exact, not approximate.
func (l *queueList) stepMean(cost sched.CostModel, step int, resident func(store.AtomID) bool) float64 {
	qs := l.ofStep(step)
	if len(qs) == 0 {
		return 0
	}
	sum := 0.0
	for _, q := range qs {
		sum += ut(cost, q, resident)
	}
	return sum / float64(len(qs))
}

// ut computes Eq. 1: U_t(i) = ΣW / (T_b·φ(i) + T_m·ΣW), with φ(i) = 0 for
// a cache-resident atom. Here, in ue and in the controller, float64(x*y)
// forces the product to round before the add: no architecture may fuse
// them into one multiply-add (make check-fma).
func ut(cost sched.CostModel, q *modelQueue, resident func(store.AtomID) bool) float64 {
	w := float64(q.positions)
	phi := 1.0
	if resident != nil && resident(q.atom) {
		phi = 0
	}
	denom := float64(cost.Tb.Seconds()*phi) + float64(cost.Tm.Seconds()*w)
	if denom <= 0 {
		return 0
	}
	return w / denom
}

// ue computes Eq. 2: U_e(i) = U_t(i)·(1−α) + E(i)·α, with E(i) the age of
// the oldest pending sub-query in milliseconds.
func ue(cost sched.CostModel, q *modelQueue, alpha float64, now time.Duration, resident func(store.AtomID) bool) float64 {
	ageMs := float64(now-q.oldest) / float64(time.Millisecond)
	return float64(ut(cost, q, resident)*(1-alpha)) + float64(ageMs*alpha)
}

// --- NoShare -------------------------------------------------------------

// modelNoShare serves whole queries strictly in the order their first
// sub-query arrived, one batch per sub-query.
type modelNoShare struct {
	fifo    []*modelNSQuery
	pending int
}

type modelNSQuery struct {
	id   query.ID
	subs []*query.SubQuery
}

func (m *modelNoShare) Enqueue(sq *query.SubQuery, now time.Duration) {
	for _, q := range m.fifo {
		if q.id == sq.Query.ID {
			q.subs = append(q.subs, sq)
			m.pending++
			return
		}
	}
	m.fifo = append(m.fifo, &modelNSQuery{id: sq.Query.ID, subs: []*query.SubQuery{sq}})
	m.pending++
}

func (m *modelNoShare) NextBatch(now time.Duration, resident func(store.AtomID) bool) []sched.Batch {
	if len(m.fifo) == 0 {
		return nil
	}
	q := m.fifo[0]
	m.fifo = m.fifo[1:]
	out := make([]sched.Batch, len(q.subs))
	for i, sq := range q.subs {
		out[i] = sched.Batch{Atom: sq.Atom, SubQueries: []*query.SubQuery{sq}}
	}
	m.pending -= len(q.subs)
	return out
}

func (m *modelNoShare) OnRunEnd(rt, tp float64) {}
func (m *modelNoShare) Alpha() float64          { return 0 }
func (m *modelNoShare) Pending() int            { return m.pending }

// --- LifeRaft ------------------------------------------------------------

// modelLifeRaft picks the single atom queue with the highest aged metric
// (ties to the lowest clustered-index key).
type modelLifeRaft struct {
	cost  sched.CostModel
	alpha float64
	q     queueList
}

func (m *modelLifeRaft) Enqueue(sq *query.SubQuery, now time.Duration) { m.q.add(sq, now) }

func (m *modelLifeRaft) NextBatch(now time.Duration, resident func(store.AtomID) bool) []sched.Batch {
	var best *modelQueue
	bestScore := 0.0
	// Key-ascending iteration: strict > keeps the lowest key on ties.
	for _, q := range m.q.queues {
		if score := ue(m.cost, q, m.alpha, now, resident); best == nil || score > bestScore {
			best, bestScore = q, score
		}
	}
	if best == nil {
		return nil
	}
	return []sched.Batch{m.q.take(best)}
}

func (m *modelLifeRaft) OnRunEnd(rt, tp float64) {}
func (m *modelLifeRaft) Alpha() float64          { return m.alpha }
func (m *modelLifeRaft) Pending() int            { return m.q.subs }

// AtomUtility implements UtilityModel.
func (m *modelLifeRaft) AtomUtility(id store.AtomID, resident func(store.AtomID) bool) float64 {
	return m.q.atomUtility(m.cost, id, resident)
}

// StepMean implements UtilityModel.
func (m *modelLifeRaft) StepMean(step int, resident func(store.AtomID) bool) float64 {
	return m.q.stepMean(m.cost, step, resident)
}

// PendingSteps implements UtilityModel.
func (m *modelLifeRaft) PendingSteps() []int { return m.q.steps() }

// PendingAtoms implements UtilityModel.
func (m *modelLifeRaft) PendingAtoms() []store.AtomID { return m.q.atoms() }

// --- JAWS ----------------------------------------------------------------

// modelJAWS is the one reference model of the JAWS family: the two-level
// selection of Fig. 6 — the time step with the highest mean aged metric,
// then up to k above-mean atoms of that step in Morton order (or the
// single best atom when none exceeds the mean) — restated as a naive
// rescan over the sorted queue list. The tail policies and QoS are
// optional steps of this same model (policy.go): a factor on every score,
// a wider level-one window, a step before the selection and one after it.
// With none installed (no gate clause, span 1) it is Fig. 6 to the letter:
// ×1.0 is IEEE-exact and a span-1 window is the anchor step.
type modelJAWS struct {
	cost sched.CostModel
	k    int
	ctrl modelAlphaController
	q    queueList

	gate   *sched.GateAwareParams // score factor; nil: every factor is 1
	gateFn func(query.ID) sched.GateState
	span   int         // level-one window, in steps; 1: the anchor only
	edf    *modelEDF   // earliest-deadline pre-step; nil: none
	steer  *modelSteer // batch-bound post-step; nil: k is fixed
}

func newModelJAWS(p Params) *modelJAWS {
	m := &modelJAWS{
		cost: p.Cost,
		k:    p.BatchSize,
		ctrl: modelAlphaController{alpha: clamp01(p.Alpha), adaptive: p.Adaptive, exploreSign: 1},
		gate: p.Policy.GateAware,
		span: 1,
	}
	if m.k <= 0 {
		m.k = 15
	}
	if xs := p.Policy.CrossStep; xs != nil {
		m.span = xs.Span
	}
	if ab := p.Policy.AdaptiveBatch; ab != nil {
		m.steer = &modelSteer{p: *ab}
		if m.k < ab.Min {
			m.k = ab.Min
		}
		if m.k > ab.Max {
			m.k = ab.Max
		}
	}
	if p.QoSStretch > 0 {
		m.edf = &modelEDF{stretch: p.QoSStretch, horizon: p.QoSHorizon, deadlines: make(map[query.ID]time.Duration)}
		if m.edf.horizon <= 0 {
			m.edf.horizon = 2 * time.Second
		}
	}
	return m
}

func (m *modelJAWS) Enqueue(sq *query.SubQuery, now time.Duration) {
	if m.edf != nil {
		m.edf.admit(sq, m.cost)
	}
	m.q.add(sq, now)
}

func (m *modelJAWS) NextBatch(now time.Duration, resident func(store.AtomID) bool) []sched.Batch {
	if m.q.subs == 0 {
		return nil
	}
	// Pre-step: atoms with a deadline inside the horizon go first. They are
	// not candidates the batch bound dropped, so such a round truncates
	// nothing as far as the post-step is concerned.
	var selected []*modelQueue
	truncated := 0
	if m.edf != nil {
		selected = m.edf.urgent(&m.q, m.k, now)
	}
	if len(selected) == 0 {
		selected, truncated = m.twoLevel(now, resident)
	}
	out := make([]sched.Batch, len(selected))
	for i, q := range selected {
		out[i] = m.q.take(q)
	}
	if m.edf != nil {
		m.edf.retire(out, &m.q, now)
	}
	// Post-step: the batch bound follows the truncation streaks.
	if m.steer != nil {
		m.k = m.steer.next(m.k, truncated)
	}
	return out
}

// score is the decision score of one atom queue: Eq. 2's aged metric
// times the gate factor (1 without a gate-aware clause or source).
func (m *modelJAWS) score(q *modelQueue, alpha float64, now time.Duration, resident func(store.AtomID) bool) float64 {
	return ue(m.cost, q, alpha, now, resident) * m.factor(q)
}

// twoLevel is the selection proper. It returns the chosen queues in
// execution order and how many above-mean candidates the batch bound
// dropped.
func (m *modelJAWS) twoLevel(now time.Duration, resident func(store.AtomID) bool) ([]*modelQueue, int) {
	alpha := m.ctrl.alpha
	steps := m.q.steps()

	// Level one: anchor on the step with the highest mean score; ascending
	// iteration plus strict > resolves ties to the lowest step. Sums
	// accumulate atoms in key order.
	anchor := -1
	bestMean, winSum, winCount := 0.0, 0.0, 0
	for i, step := range steps {
		queues := m.q.ofStep(step)
		sum := 0.0
		for _, q := range queues {
			sum += m.score(q, alpha, now, resident)
		}
		if mean := sum / float64(len(queues)); anchor < 0 || mean > bestMean {
			anchor, bestMean = i, mean
			winSum, winCount = sum, len(queues)
		}
	}

	// Window: fold in up to span−1 following steps whose values stay
	// contiguous and that share a pending query with the anchor (the
	// derivative-chain signature). The window mean replaces the anchor
	// mean as level two's bar.
	end := anchor + 1
	for ; end < len(steps) && end-anchor < m.span; end++ {
		if steps[end] != steps[end-1]+1 || !m.stepsShareQuery(steps[anchor], steps[end]) {
			break
		}
		for _, q := range m.q.ofStep(steps[end]) {
			winSum += m.score(q, alpha, now, resident)
			winCount++
		}
	}
	if end > anchor+1 {
		bestMean = winSum / float64(winCount)
	}

	// Level two: the above-mean atoms across the window in key order; if
	// none strictly exceeds the mean, the single best atom keeps the
	// schedule moving.
	var selected []*modelQueue
	var fallback *modelQueue
	fallbackScore := 0.0
	for _, step := range steps[anchor:end] {
		for _, q := range m.q.ofStep(step) {
			sc := m.score(q, alpha, now, resident)
			if sc > bestMean {
				selected = append(selected, q)
			}
			if fallback == nil || sc > fallbackScore {
				fallback, fallbackScore = q, sc
			}
		}
	}
	if len(selected) == 0 {
		selected = []*modelQueue{fallback}
	}
	// Keep the k most contentious (score-descending, key-ascending on
	// ties), then execute in Morton order.
	truncated := 0
	if len(selected) > m.k {
		truncated = len(selected) - m.k
		sort.SliceStable(selected, func(i, j int) bool {
			si := m.score(selected[i], alpha, now, resident)
			sj := m.score(selected[j], alpha, now, resident)
			if si != sj {
				return si > sj
			}
			return selected[i].atom.Key() < selected[j].atom.Key()
		})
		selected = selected[:m.k]
		sort.Slice(selected, func(i, j int) bool {
			return selected[i].atom.Key() < selected[j].atom.Key()
		})
	}
	return selected, truncated
}

func (m *modelJAWS) OnRunEnd(rt, tp float64) { m.ctrl.onRunEnd(rt, tp) }
func (m *modelJAWS) Alpha() float64          { return m.ctrl.alpha }
func (m *modelJAWS) Pending() int            { return m.q.subs }

// AtomUtility implements UtilityModel.
func (m *modelJAWS) AtomUtility(id store.AtomID, resident func(store.AtomID) bool) float64 {
	return m.q.atomUtility(m.cost, id, resident)
}

// StepMean implements UtilityModel.
func (m *modelJAWS) StepMean(step int, resident func(store.AtomID) bool) float64 {
	return m.q.stepMean(m.cost, step, resident)
}

// PendingSteps implements UtilityModel.
func (m *modelJAWS) PendingSteps() []int { return m.q.steps() }

// PendingAtoms implements UtilityModel.
func (m *modelJAWS) PendingAtoms() []store.AtomID { return m.q.atoms() }

var (
	_ UtilityModel   = (*modelLifeRaft)(nil)
	_ UtilityModel   = (*modelJAWS)(nil)
	_ GateAwareModel = (*modelJAWS)(nil)
)

// modelAlphaController is the §V.A starvation-resistance controller,
// restated from the paper: smooth each run's response time and throughput
// with the EWMA x' = 0.2·x + 0.8·x' (x'(0) = x(0)), compare consecutive
// smoothed runs, and move α toward contention when saturation rises
// without commensurate throughput, toward age when slack appears, with a
// ±0.05 alternating probe after two flat runs.
type modelAlphaController struct {
	alpha    float64
	adaptive bool

	rtS, tpS       float64
	started        bool
	prevRt, prevTp float64
	havePrev       bool
	flatRuns       int
	exploreSign    float64
}

func (c *modelAlphaController) smooth(rt, tp float64) (float64, float64) {
	// w and 1-w are computed the way the production EWMA does (runtime
	// 1-w, not a 0.8 literal) so the smoothing is bit-identical.
	w := 0.2
	if !c.started {
		c.rtS, c.tpS = rt, tp
		c.started = true
	} else {
		c.rtS = float64(w*rt) + float64((1-w)*c.rtS)
		c.tpS = float64(w*tp) + float64((1-w)*c.tpS)
	}
	return c.rtS, c.tpS
}

func (c *modelAlphaController) onRunEnd(rt, tp float64) {
	if !c.adaptive {
		return
	}
	srt, stp := c.smooth(rt, tp)
	if !c.havePrev {
		c.prevRt, c.prevTp = srt, stp
		c.havePrev = true
		return
	}
	if c.prevRt <= 0 || c.prevTp <= 0 {
		c.prevRt, c.prevTp = srt, stp
		return
	}
	rtRatio := srt / c.prevRt
	tpRatio := stp / c.prevTp
	c.prevRt, c.prevTp = srt, stp

	// The update expressions mirror the production controller verbatim:
	// bit-exact agreement matters, and expressions like α + fl(1−α) do
	// not round to the same double as branch-reconstructed equivalents.
	delta := rtRatio - tpRatio
	switch {
	case rtRatio >= 1 && tpRatio < rtRatio:
		c.alpha -= math.Min(delta, c.alpha)
		c.flatRuns = 0
	case rtRatio < 1 && tpRatio < rtRatio:
		c.alpha += math.Min(delta, 1-c.alpha)
		c.flatRuns = 0
	case math.Abs(rtRatio-1) < 0.01 && math.Abs(tpRatio-1) < 0.01:
		c.flatRuns++
		if c.flatRuns >= 2 {
			c.alpha += float64(c.exploreSign * 0.05)
			c.exploreSign = -c.exploreSign
			c.flatRuns = 0
		}
	default:
		c.flatRuns = 0
	}
	c.alpha = clamp01(c.alpha)
}
