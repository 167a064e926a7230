package sched

import (
	"fmt"
	"math"
	"sort"
	"time"

	"jaws/internal/query"
	"jaws/internal/store"
)

// JAWSConfig parameterizes the JAWS scheduler.
type JAWSConfig struct {
	Cost CostModel
	// BatchSize is k, the maximum number of atoms co-scheduled per time
	// step (§V). The paper finds the optimum between 10 and 15 and uses
	// k = 15 in the evaluation.
	BatchSize int
	// InitialAlpha seeds the age bias; the paper initializes α to 0.5.
	InitialAlpha float64
	// Adaptive enables the automated starvation-resistance controller of
	// §V.A. When false, α stays at InitialAlpha.
	Adaptive bool
	// Resident reports cache residency for φ(i); may be nil.
	Resident func(store.AtomID) bool
	// NoMortonOrder disables the Morton-order execution of the selected
	// batch (ablation): atoms run in descending-metric order instead, so
	// the disk sees no sequential runs and stencil locality is broken.
	NoMortonOrder bool
}

// selSorter orders a JAWS selection in one of the orders the algorithm
// needs, swapping the score slice in lockstep. A preallocated struct
// (instead of sort.Slice closures) keeps the decision path
// allocation-free.
type selSorter struct {
	sel   []*atomQueue
	score []float64
	mode  int
}

const (
	sortScoreDescKeyAsc   = iota // truncation: most contentious first
	sortKeyAsc                   // Morton execution order
	sortScoreDescKeyDesc         // noMorton ablation: metric order
	sortDeadlineAscKeyAsc        // QoS urgent pre-pass: earliest deadline first
)

func (s *selSorter) Len() int { return len(s.sel) }

func (s *selSorter) Swap(i, j int) {
	s.sel[i], s.sel[j] = s.sel[j], s.sel[i]
	s.score[i], s.score[j] = s.score[j], s.score[i]
}

func (s *selSorter) Less(i, j int) bool {
	switch s.mode {
	case sortKeyAsc:
		return s.sel[i].id.Key() < s.sel[j].id.Key()
	case sortScoreDescKeyDesc:
		if s.score[i] != s.score[j] {
			return s.score[i] > s.score[j]
		}
		return s.sel[i].id.Key() > s.sel[j].id.Key()
	case sortDeadlineAscKeyAsc:
		if s.sel[i].deadline != s.sel[j].deadline {
			return s.sel[i].deadline < s.sel[j].deadline
		}
		return s.sel[i].id.Key() < s.sel[j].id.Key()
	default: // sortScoreDescKeyAsc
		if s.score[i] != s.score[j] {
			return s.score[i] > s.score[j]
		}
		return s.sel[i].id.Key() < s.sel[j].id.Key()
	}
}

// JAWS is the two-level, adaptively starvation-resistant scheduler of §V.
// At the coarse level it picks the time step with the highest mean aged
// workload throughput; at the fine level it batches up to k above-mean
// atoms of that step and executes them in Morton order.
//
// It is the only type that selects a JAWS batch. Four optional hooks,
// each a nil-able field consulted at one point of NextBatch, turn the
// paper's algorithm into its tail-policy and QoS variants (a hook left
// unset costs one branch):
//
//	score factor      gate (+ gateFn): every atom's aged metric is
//	                  multiplied by the gate-aware Boost/Discount factor
//	                  (PolicySpec.GateAware)
//	window extension  span > 1: the anchor step's window grows across
//	                  adjacent steps sharing a query (PolicySpec.CrossStep)
//	batch-bound steer steer: k follows the truncation streaks, after the
//	                  decision (PolicySpec.AdaptiveBatch)
//	urgent pre-pass   qos: atoms with a deadline inside the horizon are
//	                  served earliest-deadline-first, before the two-level
//	                  selection is even tried (NewQoS)
//
// PolicySpec.Wrap and NewQoS install the hooks; they compose freely.
type JAWS struct {
	queueCore
	name     string
	k        int
	ctrl     *alphaController
	noMorton bool

	gate   *GateAwareParams
	gateFn func(query.ID) GateState
	span   int
	steer  *batchSteer
	qos    *qosPass

	// Reused decision buffers (zero allocations in steady state).
	sel    []*atomQueue
	score  []float64
	sorter selSorter
	out    []Batch
}

// NewJAWS creates a JAWS scheduler.
func NewJAWS(cfg JAWSConfig) *JAWS {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 15
	}
	alpha := cfg.InitialAlpha
	if alpha < 0 {
		alpha = 0
	}
	if alpha > 1 {
		alpha = 1
	}
	return &JAWS{
		queueCore: queueCore{q: newQueues(cfg.Cost, cfg.Resident)},
		name:      "JAWS",
		k:         cfg.BatchSize,
		ctrl:      newAlphaController(alpha, cfg.Adaptive),
		noMorton:  cfg.NoMortonOrder,
		span:      1,
	}
}

// Name implements Scheduler: "JAWS" plus one "+clause" per installed hook
// (e.g. JAWS+gate-aware+cross-step+adaptive-batch, JAWS+QoS).
func (s *JAWS) Name() string { return s.name }

// Enqueue implements Scheduler. Under a gate-aware clause it reads the
// query's gate state here, once per sub-query (see GateAware).
func (s *JAWS) Enqueue(sq *query.SubQuery, now time.Duration) {
	if s.qos != nil {
		s.qos.admit(sq)
	}
	aq := s.q.add(sq, now)
	if s.gate != nil && s.gateFn != nil {
		switch s.gateFn(sq.Query.ID) {
		case GateReleasing:
			aq.releasing++
		case GateBlocked:
			aq.blocked++
		}
	}
}

// sortSel sorts the current selection under the given mode.
func (s *JAWS) sortSel(mode int) {
	s.sorter.sel = s.sel
	s.sorter.score = s.score
	s.sorter.mode = mode
	sort.Sort(&s.sorter)
}

// atomScore is the decision score of one atom: Eq. 2's aged metric, times
// the gate factor when a gate-aware clause is installed. The clause makes
// the multiplication unconditional (×1.0 is IEEE-exact), so the spelled
// expression is the same on every path and in the reference model.
func (s *JAWS) atomScore(aq *atomQueue, alpha float64, now time.Duration) float64 {
	ue := s.q.ue(aq, alpha, now)
	if s.gate == nil {
		return ue
	}
	return ue * s.gateFactor(aq)
}

// bucketScoreSum returns Σ atomScore over the bucket, atoms in key order.
// Without a gate-aware clause this is the queues' own Σ U_e, memoized at
// α = 0. With one it is memoized at α = 0 too: a score is then U_t times
// a gate factor, which only an Enqueue on the atom changes (and every
// Enqueue drops its bucket's memos), and U_t holds for the epoch.
func (s *JAWS) bucketScoreSum(b *stepBucket, alpha float64, now time.Duration) float64 {
	if s.gate == nil {
		return s.q.stepUeSum(b, alpha, now)
	}
	if alpha == 0 && b.scoreSeen == s.q.epoch {
		return b.scoreSum
	}
	sum := 0.0
	for _, aq := range b.atoms {
		sum += s.atomScore(aq, alpha, now)
	}
	if alpha == 0 {
		s.q.stepSumRecomputes++
		b.scoreSum, b.scoreSeen = sum, s.q.epoch
	}
	return sum
}

// NextBatch implements Scheduler. Two-level selection (Fig. 6): first the
// time step with the highest mean aged workload throughput, then up to k
// atoms of that step whose metric exceeds the step mean, sorted in Morton
// order. If no atom strictly exceeds the mean (e.g. all queues equal),
// the single best atom is scheduled so progress is always made.
//
// The selection walks the step buckets in ascending step order and each
// bucket's atoms in ascending key order — exactly the iteration order of
// the reference model, so strict > reproduces its tie-breaks and the
// floating-point sums accumulate identically.
func (s *JAWS) NextBatch(now time.Duration) []Batch {
	q := s.q
	q.beginDecision()
	if len(q.buckets) == 0 {
		return nil
	}
	q.syncResidency()
	alpha := s.ctrl.alpha
	var exp *Explain
	if s.explain {
		exp = &s.exp
		resetExplain(exp, s.name, alpha, len(q.byAtom), q.subs)
	}
	s.sel = s.sel[:0]
	s.score = s.score[:0]
	// trunc counts the above-mean candidates the batch bound drops: the
	// round's batch-full pass-overs, which the batch-bound steer follows.
	trunc := 0

	if s.qos != nil && s.selectUrgent(now) {
		// Urgent pre-pass: deadlines bind, so the k earliest-deadline atoms
		// go now — still in Morton order, the data-sharing elasticity the
		// paper notes survives real-time constraints. The atoms beyond k
		// are not batch-full pass-overs (they lost no utility race): an
		// urgent round reports zero truncation.
		if exp != nil {
			exp.Urgent = true
		}
		s.sortSel(sortDeadlineAscKeyAsc)
		if len(s.sel) > s.k {
			s.sel = s.sel[:s.k]
			s.score = s.score[:s.k]
		}
		s.sortSel(sortKeyAsc)
		for i, aq := range s.sel {
			s.score[i] = s.atomScore(aq, alpha, now) // reported, not decided on
		}
	} else {
		// Level one: anchor on the step bucket with the best mean score
		// (strict >, so the earliest step wins ties).
		anchor := -1
		bestMean, winSum := 0.0, 0.0
		for i, b := range q.buckets {
			sum := s.bucketScoreSum(b, alpha, now)
			if mean := sum / float64(len(b.atoms)); anchor < 0 || mean > bestMean {
				anchor, bestMean, winSum = i, mean, sum
			}
			if exp != nil {
				captureStep(exp, q, b, alpha, now)
			}
		}
		if exp != nil {
			exp.WinnerStep = q.buckets[anchor].step
		}
		// Window extension: fold in up to span−1 following buckets whose
		// step values stay contiguous and that share a pending query with
		// the anchor — the derivative-chain case, where serving the later
		// steps alongside the anchor completes the chain in one decision (a
		// bucket with no query in common gains nothing from co-scheduling
		// and is left to its own race). The window mean then replaces the
		// anchor mean as level two's bar.
		end := anchor + 1
		winCount := len(q.buckets[anchor].atoms)
		for ; end < len(q.buckets) && end-anchor < s.span; end++ {
			b := q.buckets[end]
			if b.step != q.buckets[end-1].step+1 || !bucketsShareQuery(q.buckets[anchor], b) {
				break
			}
			for _, aq := range b.atoms {
				winSum += s.atomScore(aq, alpha, now)
			}
			winCount += len(b.atoms)
		}
		if end > anchor+1 {
			bestMean = winSum / float64(winCount)
		}
		// Level two: the above-mean atoms of the window, in global key order
		// (bucket order is step-ascending and keys are step-major, so
		// concatenation preserves key order).
		var fallback *atomQueue
		fallbackScore := 0.0
		for _, b := range q.buckets[anchor:end] {
			for _, aq := range b.atoms {
				sc := s.atomScore(aq, alpha, now)
				if sc > bestMean {
					s.sel = append(s.sel, aq)
					s.score = append(s.score, sc)
				}
				if fallback == nil || sc > fallbackScore {
					fallback, fallbackScore = aq, sc
				}
			}
		}
		if len(s.sel) == 0 {
			s.sel = append(s.sel, fallback)
			s.score = append(s.score, fallbackScore)
		}
		// Keep the k most contentious of the above-mean atoms, then execute
		// them in Morton order to amortize seeks. The selection is built in
		// key order, so the Morton re-sort is only needed after a truncation
		// disturbed it.
		if len(s.sel) > s.k {
			trunc = len(s.sel) - s.k
			s.sortSel(sortScoreDescKeyAsc)
			if exp != nil {
				// The victims are the tail beyond k, before the shrink: the
				// above-mean candidates the batch bound passed over.
				for i := s.k; i < len(s.sel); i++ {
					captureAtom(&exp.Truncated, q, s.sel[i], s.score[i], now)
				}
			}
			s.sel = s.sel[:s.k]
			s.score = s.score[:s.k]
		}
		if s.noMorton {
			// Ablation: metric order instead of Morton order.
			s.sortSel(sortScoreDescKeyDesc)
		} else if trunc > 0 {
			s.sortSel(sortKeyAsc)
		}
	}

	if s.trace.Enabled() {
		for i, aq := range s.sel {
			s.trace.Decision(now, s.name, aq.id.Step, uint64(aq.id.Code),
				len(s.sel), q.ut(aq), s.score[i], alpha)
		}
	}
	s.out = s.out[:0]
	for i, aq := range s.sel {
		if exp != nil {
			captureAtom(&exp.Chosen, q, aq, s.score[i], now)
		}
		s.out = append(s.out, q.take(aq.id))
		s.sel[i] = nil
	}
	if s.qos != nil {
		s.qos.retire(s.out, now)
	}
	if s.steer != nil {
		s.k = s.steer.next(s.k, trunc)
	}
	return s.out
}

// OnRunEnd implements Scheduler: feed the run's performance to the
// adaptive α controller.
func (s *JAWS) OnRunEnd(rt, tp float64) { s.ctrl.onRunEnd(rt, tp) }

// Alpha implements Scheduler.
func (s *JAWS) Alpha() float64 { return s.ctrl.alpha }

var (
	_ Scheduler          = (*JAWS)(nil)
	_ UtilityProvider    = (*JAWS)(nil)
	_ Traced             = (*JAWS)(nil)
	_ ResidencyVersioned = (*JAWS)(nil)
	_ Explained          = (*JAWS)(nil)
	_ GateAware          = (*JAWS)(nil)
)

// alphaController implements the adaptive starvation resistance of §V.A.
// The workload is divided into runs of r consecutive queries (the engine
// decides r and calls onRunEnd). Performance is smoothed with the paper's
// EWMA (x' = 0.2·x + 0.8·x'); the age bias is then adjusted:
//
//	(1) saturation rising (rt ratio ≥ 1) and throughput not keeping up:
//	    α decreases (bias toward contention) by min(Δ, α);
//	(2) saturation falling (rt ratio < 1) and throughput fell faster:
//	    α increases (bias toward age) by min(Δ, 1−α);
//
// where Δ = rt-ratio − tp-ratio. If two consecutive runs show no change,
// the controller perturbs α to explore the trade-off curve rather than
// staying stuck at a bad initial value.
type alphaController struct {
	alpha    float64
	adaptive bool

	rtE, tpE       *ewma
	prevRt, prevTp float64
	havePrev       bool
	flatRuns       int
	exploreSign    float64

	// History records α after each run for the Fig. 11 diagnostics.
	History []float64
}

func newAlphaController(alpha float64, adaptive bool) *alphaController {
	return &alphaController{
		alpha:       alpha,
		adaptive:    adaptive,
		rtE:         newEWMA(0.2),
		tpE:         newEWMA(0.2),
		exploreSign: 1,
	}
}

// ewma is the exponentially weighted moving average JAWS uses to smooth
// per-run performance (§V.A): x'(i) = w·x(i) + (1-w)·x'(i-1), with
// x'(0) = x(0). w stays a run-time value: 1-w folded at compile time
// rounds differently, and α's low bits (and every committed artifact)
// would move.
type ewma struct {
	w       float64
	value   float64
	started bool
}

// newEWMA creates an EWMA with weight w on the newest observation. The
// paper uses w = 0.2.
func newEWMA(w float64) *ewma {
	if w <= 0 || w > 1 {
		panic(fmt.Sprintf("sched: EWMA weight must be in (0,1], got %g", w))
	}
	return &ewma{w: w}
}

// observe folds in a new value and returns the smoothed result.
func (e *ewma) observe(v float64) float64 {
	if !e.started {
		e.value = v
		e.started = true
		return v
	}
	e.value = float64(e.w*v) + float64((1-e.w)*e.value)
	return e.value
}

// flatTolerance bounds the relative change regarded as "no change" for
// the exploration rule.
const flatTolerance = 0.01

// exploreStep is the α perturbation applied when the trade-off curve has
// been flat for two consecutive runs.
const exploreStep = 0.05

func (c *alphaController) onRunEnd(rt, tp float64) {
	if !c.adaptive {
		return
	}
	srt := c.rtE.observe(rt)
	stp := c.tpE.observe(tp)
	defer func() { c.History = append(c.History, c.alpha) }()
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

	delta := rtRatio - tpRatio
	switch {
	case rtRatio >= 1 && tpRatio < rtRatio:
		// Saturation rising without commensurate throughput: chase
		// contention.
		c.alpha -= math.Min(delta, c.alpha)
		c.flatRuns = 0
	case rtRatio < 1 && tpRatio < rtRatio:
		// Saturation falling and throughput fell faster than response
		// time improved: spend slack on latency.
		c.alpha += math.Min(delta, 1-c.alpha)
		c.flatRuns = 0
	case math.Abs(rtRatio-1) < flatTolerance && math.Abs(tpRatio-1) < flatTolerance:
		c.flatRuns++
		if c.flatRuns >= 2 {
			// Explore the performance curve: alternate the direction so a
			// fruitless probe is undone on the next flat pair.
			c.alpha += float64(c.exploreSign * exploreStep)
			c.exploreSign = -c.exploreSign
			c.flatRuns = 0
		}
	default:
		c.flatRuns = 0
	}
	if c.alpha < 0 {
		c.alpha = 0
	}
	if c.alpha > 1 {
		c.alpha = 1
	}
}
