package sched

import (
	"fmt"
	"strconv"
	"strings"

	"jaws/internal/query"
)

// Tail policies: optional hooks of the JAWS selector that attack the
// response-time tail the wait-cause attribution exposes (gated-behind,
// batch-full, lost-race). Three policies compose through one spec string:
//
//	gate-aware      adjust the utility race with job-graph gate states:
//	                atoms carrying queries whose completion releases a
//	                WAIT successor are boosted, atoms whose queries are
//	                all blocked behind unresolved upstream edges are
//	                discounted — runs spend I/O on work that can complete
//	                and on work that unblocks more work.
//	cross-step      widen level-one selection from a single step bucket
//	                to the best window of adjacent steps, so a
//	                derivative-chain query's sub-queries on steps s..s+c
//	                can be served in one decision instead of c races.
//	adaptive-batch  grow the batch bound k while decisions keep
//	                truncating above-mean candidates (batch-full
//	                pass-overs) and shrink it back when rounds fit,
//	                so aged queries stop losing races at a fixed k.
//
// None of them selects anything itself: gate-aware is the selector's score
// factor, cross-step its window extension, adaptive-batch its batch-bound
// steer (JAWS.NextBatch is the one selection kernel; this file holds the
// grammar and the three hook bodies). Every combination keeps the
// zero-alloc decision path (see TestDecisionPathZeroAllocs) and is
// certified against the independent reference model in internal/oracle by
// differential replay.

// GateState is the job-graph condition of one pending query, as reported
// by the engine's gate source (GateFree when no source is installed).
type GateState uint8

const (
	// GateFree: the query has no gate relationship that should move its
	// atoms in the utility race.
	GateFree GateState = iota
	// GateBlocked: the query is held behind unresolved upstream edges
	// (jobgraph.BlockedBy is non-empty) — serving its atoms cannot
	// complete it yet.
	GateBlocked
	// GateReleasing: completing the query releases a WAIT successor in
	// its job — serving its atoms shortens someone's gated-behind wait.
	GateReleasing
)

// GateAware is implemented by schedulers that consume per-query gate
// states. The engine installs its job-graph view through SetGateSource
// when job-aware gating is on; fn may be nil (all queries read GateFree).
//
// The contract: a scheduler reads a query's state once per sub-query, when
// it is enqueued, and keeps what it read. A source must therefore give a
// query the same state for as long as any of its sub-queries is pending
// (the engine's fixes it at dispatch), and is installed before the first
// Enqueue it should steer.
type GateAware interface {
	SetGateSource(fn func(q query.ID) GateState)
}

// The parameters of the three clauses.
type (
	// GateAwareParams tunes the gate-aware admission-order policy.
	GateAwareParams struct {
		// Discount multiplies the aged metric of atoms whose pending queries
		// are all gate-blocked; in (0, 1].
		Discount float64
		// Boost multiplies the aged metric of atoms carrying at least one
		// gate-releasing query; ≥ 1.
		Boost float64
	}

	// CrossStepParams tunes the cross-step batching policy.
	CrossStepParams struct {
		// Span bounds the window of adjacent step buckets one decision may
		// coalesce; in [1, 8] (1 degenerates to plain JAWS selection).
		Span int
	}

	// AdaptiveBatchParams tunes the starvation-aware batch sizing policy.
	AdaptiveBatchParams struct {
		// Min and Max bound the batch size k.
		Min, Max int
		// Grow is added to k after Full consecutive truncating rounds;
		// Shrink is subtracted after Idle consecutive non-truncating rounds.
		Grow, Shrink int
		Full, Idle   int
	}
)

// Policy spec grammar (mirrors internal/fault's ParseSpec):
//
//	spec   := clause (';' clause)*          (empty spec: no policy)
//	clause := name [':' param (',' param)*]
//	param  := key '=' value
//
// Clause names and parameters (defaults in parentheses):
//
//	gate-aware:discount=0.25,boost=2
//	cross-step:span=2
//	adaptive-batch:min=4,max=32,grow=2,shrink=1,full=2,idle=8
//
// Each clause may appear at most once; clause order is irrelevant
// (String renders canonically: gate-aware, cross-step, adaptive-batch).
type PolicySpec struct {
	GateAware     *GateAwareParams
	CrossStep     *CrossStepParams
	AdaptiveBatch *AdaptiveBatchParams
}

// Empty reports whether the spec selects no policy.
func (s PolicySpec) Empty() bool {
	return s.GateAware == nil && s.CrossStep == nil && s.AdaptiveBatch == nil
}

// String renders the spec canonically; ParsePolicySpec(s.String())
// round-trips to an identical spec.
func (s PolicySpec) String() string {
	var parts []string
	if p := s.GateAware; p != nil {
		parts = append(parts, fmt.Sprintf("gate-aware:discount=%s,boost=%s",
			strconv.FormatFloat(p.Discount, 'g', -1, 64),
			strconv.FormatFloat(p.Boost, 'g', -1, 64)))
	}
	if p := s.CrossStep; p != nil {
		parts = append(parts, fmt.Sprintf("cross-step:span=%d", p.Span))
	}
	if p := s.AdaptiveBatch; p != nil {
		parts = append(parts, fmt.Sprintf("adaptive-batch:min=%d,max=%d,grow=%d,shrink=%d,full=%d,idle=%d",
			p.Min, p.Max, p.Grow, p.Shrink, p.Full, p.Idle))
	}
	return strings.Join(parts, ";")
}

// ParsePolicySpec parses a tail-policy spec string. The empty string (and
// strings of empty clauses, e.g. ";;") parse to the empty spec.
func ParsePolicySpec(in string) (PolicySpec, error) {
	var spec PolicySpec
	for _, clause := range strings.Split(in, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, rest, hasParams := strings.Cut(clause, ":")
		name = strings.TrimSpace(name)
		params := make(map[string]string)
		if hasParams {
			for _, p := range strings.Split(rest, ",") {
				p = strings.TrimSpace(p)
				if p == "" {
					return PolicySpec{}, fmt.Errorf("sched: policy %q: empty parameter", name)
				}
				k, v, ok := strings.Cut(p, "=")
				k, v = strings.TrimSpace(k), strings.TrimSpace(v)
				if !ok || k == "" {
					return PolicySpec{}, fmt.Errorf("sched: policy %q: parameter %q is not key=value", name, p)
				}
				if _, dup := params[k]; dup {
					return PolicySpec{}, fmt.Errorf("sched: policy %q: duplicate parameter %q", name, k)
				}
				params[k] = v
			}
		}
		var err error
		switch name {
		case "gate-aware":
			if spec.GateAware != nil {
				return PolicySpec{}, fmt.Errorf("sched: duplicate policy clause %q", name)
			}
			spec.GateAware, err = parseGateAware(params)
		case "cross-step":
			if spec.CrossStep != nil {
				return PolicySpec{}, fmt.Errorf("sched: duplicate policy clause %q", name)
			}
			spec.CrossStep, err = parseCrossStep(params)
		case "adaptive-batch":
			if spec.AdaptiveBatch != nil {
				return PolicySpec{}, fmt.Errorf("sched: duplicate policy clause %q", name)
			}
			spec.AdaptiveBatch, err = parseAdaptiveBatch(params)
		default:
			return PolicySpec{}, fmt.Errorf("sched: unknown policy %q (have gate-aware, cross-step, adaptive-batch)", name)
		}
		if err != nil {
			return PolicySpec{}, err
		}
	}
	return spec, nil
}

func parseGateAware(params map[string]string) (*GateAwareParams, error) {
	p := &GateAwareParams{Discount: 0.25, Boost: 2}
	for k, v := range params {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("sched: gate-aware: %s=%q: %v", k, v, err)
		}
		switch k {
		case "discount":
			p.Discount = f
		case "boost":
			p.Boost = f
		default:
			return nil, fmt.Errorf("sched: gate-aware: unknown parameter %q", k)
		}
	}
	if !(p.Discount > 0 && p.Discount <= 1) {
		return nil, fmt.Errorf("sched: gate-aware: discount %g out of (0, 1]", p.Discount)
	}
	if !(p.Boost >= 1 && p.Boost <= 1e6) {
		return nil, fmt.Errorf("sched: gate-aware: boost %g out of [1, 1e6]", p.Boost)
	}
	return p, nil
}

func parseCrossStep(params map[string]string) (*CrossStepParams, error) {
	p := &CrossStepParams{Span: 2}
	for k, v := range params {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("sched: cross-step: %s=%q: %v", k, v, err)
		}
		switch k {
		case "span":
			p.Span = n
		default:
			return nil, fmt.Errorf("sched: cross-step: unknown parameter %q", k)
		}
	}
	if p.Span < 1 || p.Span > 8 {
		return nil, fmt.Errorf("sched: cross-step: span %d out of [1, 8]", p.Span)
	}
	return p, nil
}

func parseAdaptiveBatch(params map[string]string) (*AdaptiveBatchParams, error) {
	p := &AdaptiveBatchParams{Min: 4, Max: 32, Grow: 2, Shrink: 1, Full: 2, Idle: 8}
	for k, v := range params {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("sched: adaptive-batch: %s=%q: %v", k, v, err)
		}
		switch k {
		case "min":
			p.Min = n
		case "max":
			p.Max = n
		case "grow":
			p.Grow = n
		case "shrink":
			p.Shrink = n
		case "full":
			p.Full = n
		case "idle":
			p.Idle = n
		default:
			return nil, fmt.Errorf("sched: adaptive-batch: unknown parameter %q", k)
		}
	}
	if p.Min < 1 {
		return nil, fmt.Errorf("sched: adaptive-batch: min %d < 1", p.Min)
	}
	if p.Max < p.Min || p.Max > 1024 {
		return nil, fmt.Errorf("sched: adaptive-batch: max %d out of [min=%d, 1024]", p.Max, p.Min)
	}
	if p.Grow < 1 || p.Shrink < 1 {
		return nil, fmt.Errorf("sched: adaptive-batch: grow/shrink must be ≥ 1 (got %d/%d)", p.Grow, p.Shrink)
	}
	if p.Full < 1 || p.Idle < 1 {
		return nil, fmt.Errorf("sched: adaptive-batch: full/idle must be ≥ 1 (got %d/%d)", p.Full, p.Idle)
	}
	return p, nil
}

// Wrap installs the spec's policies on inner — each clause one hook of
// the JAWS selector (see JAWS) — and returns inner. Clauses the spec lacks
// are left uninstalled, so the empty spec changes nothing.
func (s PolicySpec) Wrap(inner *JAWS) Scheduler {
	name := "JAWS"
	if s.GateAware != nil {
		inner.gate = s.GateAware
		name += "+gate-aware"
	}
	if p := s.CrossStep; p != nil {
		inner.span = p.Span
		name += "+cross-step"
	}
	if p := s.AdaptiveBatch; p != nil {
		inner.steer = &batchSteer{p: *p}
		inner.k = min(max(inner.k, p.Min), p.Max)
		name += "+adaptive-batch"
	}
	if inner.qos != nil {
		name += "+QoS"
	}
	inner.name = name
	return inner
}

// --- score factor: gate-aware ---------------------------------------------

// SetGateSource implements GateAware. The source is consulted only while
// a gate-aware clause is installed, by Enqueue.
func (s *JAWS) SetGateSource(fn func(q query.ID) GateState) { s.gateFn = fn }

// gateFactor returns the gate multiplier for one atom queue: Boost if any
// pending query is releasing, Discount if all are blocked, 1 otherwise
// (so 1 for sub-queries enqueued without a gate source). The states are
// those Enqueue counted, so this is two comparisons.
func (s *JAWS) gateFactor(aq *atomQueue) float64 {
	if aq.releasing > 0 {
		return s.gate.Boost
	}
	if int(aq.blocked) == len(aq.subs) {
		return s.gate.Discount
	}
	return 1
}

// --- window extension: cross-step -----------------------------------------

// bucketsShareQuery reports whether any pending sub-query in a and b
// belongs to the same query — the derivative-chain signature that makes
// a window extension worthwhile. Buckets are small (atoms of one step),
// so the nested scan stays cheap and allocation-free.
func bucketsShareQuery(a, b *stepBucket) bool {
	for _, aqa := range a.atoms {
		for _, sqa := range aqa.subs {
			for _, aqb := range b.atoms {
				for _, sqb := range aqb.subs {
					if sqa.Query.ID == sqb.Query.ID {
						return true
					}
				}
			}
		}
	}
	return false
}

// --- batch-bound steer: adaptive-batch ------------------------------------

// batchSteer resizes the batch bound k from the truncation pressure the
// decisions themselves report: after Full consecutive rounds that dropped
// above-mean candidates (batch-full pass-overs: the round's truncation,
// which the capture reports as Truncated and obs.FlightRecorder sums as
// PassBatchFull), k grows by Grow up to Max; after Idle consecutive rounds
// that fit, k shrinks by Shrink down to Min. Steering on the decision
// stream — not on a wall-clock recorder snapshot — keeps the policy a pure
// function of the op log, so the oracle replays it exactly.
type batchSteer struct {
	p AdaptiveBatchParams

	streakFull, streakIdle int
}

// next folds one non-empty round's truncation count into the streaks and
// returns the batch bound for the following round (empty rounds never
// reach the steer, so they leave the streaks untouched).
func (a *batchSteer) next(k, trunc int) int {
	if trunc > 0 {
		a.streakFull++
		a.streakIdle = 0
		if a.streakFull >= a.p.Full {
			a.streakFull = 0
			if k < a.p.Max {
				k = min(k+a.p.Grow, a.p.Max)
			}
		}
		return k
	}
	a.streakIdle++
	a.streakFull = 0
	if a.streakIdle >= a.p.Idle {
		a.streakIdle = 0
		if k > a.p.Min {
			k = max(k-a.p.Shrink, a.p.Min)
		}
	}
	return k
}
