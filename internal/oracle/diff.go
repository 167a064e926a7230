package oracle

import (
	"fmt"

	"jaws/internal/oracle/difftest"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/store"
)

// Target bundles the two sides of one differential comparison: a factory
// for a fresh production scheduler and one for the reference model. Both
// must be deterministic functions of their inputs so any op log can be
// replayed through fresh instances.
type Target struct {
	// Name labels the target in reports.
	Name string
	// New builds a fresh production scheduler; resident is the residency
	// oracle it must consult for the φ(i) term.
	New func(resident func(store.AtomID) bool) sched.Scheduler
	// NewModel builds a fresh reference model.
	NewModel func() Model
}

// StandardTarget pairs a production scheduler of the given algorithm with
// its reference model, both built from the same parameters — for JAWS
// including the tail policies and QoS deadlines the parameters name.
func StandardTarget(a Algo, p Params) Target {
	name := a.String()
	if a == AlgoJAWS && !p.Policy.Empty() {
		name += "+policy(" + p.Policy.String() + ")"
	}
	if a == AlgoJAWS && p.QoSStretch > 0 {
		name += fmt.Sprintf("+QoS(stretch=%g,horizon=%s)", p.QoSStretch, p.QoSHorizon)
	}
	return Target{
		Name: name,
		New: func(resident func(store.AtomID) bool) sched.Scheduler {
			switch a {
			case AlgoNoShare:
				return sched.NewNoShare()
			case AlgoLifeRaft:
				return sched.NewLifeRaft(p.Cost, p.Alpha, resident)
			default:
				s := sched.NewJAWS(sched.JAWSConfig{
					Cost:         p.Cost,
					BatchSize:    p.BatchSize,
					InitialAlpha: p.Alpha,
					Adaptive:     p.Adaptive,
					Resident:     resident,
				})
				p.Policy.Wrap(s)
				if p.QoSStretch > 0 {
					sched.NewQoS(s, p.Cost, p.QoSStretch, p.QoSHorizon)
				}
				return s
			}
		},
		NewModel: func() Model { return NewModel(a, p) },
	}
}

// Divergence describes the first disagreement found while replaying an op
// log through a target.
type Divergence struct {
	// Target names the diverging target.
	Target string
	// OpIndex is the position in the log at which the sides disagreed.
	OpIndex int
	// Kind classifies the disagreement: "model-vs-real" (the reference
	// model and the production scheduler chose differently),
	// "replay-vs-recorded" (a fresh production replay did not reproduce
	// the recorded run — lost state or nondeterminism),
	// "pending-mismatch" (queue accounting drifted), or
	// "utility-mismatch" (the production scheduler's memoized utility
	// view disagreed with the model's naive rescan).
	Kind string
	// Detail is a human-readable account of the two answers.
	Detail string
}

// Error renders the divergence as one line.
func (d *Divergence) Error() string {
	return fmt.Sprintf("%s: op %d: %s: %s", d.Target, d.OpIndex, d.Kind, d.Detail)
}

// Diff replays the op log through a fresh production scheduler and a
// fresh reference model, comparing every decision. When the log still
// carries recorded answers (Op.Got), the production replay is also
// checked against the recording — a determinism and
// recording-completeness audit. It returns the first divergence, or nil
// when the sides agree over the whole log.
//
// The replay installs a residency version source on the production
// scheduler — bumped whenever a decision's snapshot replaces the current
// one — so memos live across calls, as they do under the engine, and that
// is what is certified. After every decision the
// production UtilityProvider view (AtomUtility, StepMean, PendingSteps)
// is compared against the model's naive rescan with strict float
// equality.
func Diff(t Target, log *OpLog) *Divergence {
	var snap map[store.AtomID]bool
	var snapVersion uint64 = 1
	resident := func(id store.AtomID) bool { return snap[id] }
	real := t.New(resident)
	model := t.NewModel()
	if rv, ok := real.(sched.ResidencyVersioned); ok {
		rv.SetResidencyVersion(func() uint64 { return snapVersion })
	}
	// Gate-aware targets replay against the gate states recorded at
	// enqueue: the same source closure is installed on both sides — the
	// production scheduler reads it at Enqueue, the model at every
	// decision — so a disagreement is a decision-rule divergence, or a
	// query whose state moved while it was pending.
	gates := make(map[query.ID]sched.GateState)
	gateFn := func(q query.ID) sched.GateState { return gates[q] }
	if ga, ok := real.(sched.GateAware); ok {
		ga.SetGateSource(gateFn)
	}
	if gm, ok := model.(GateAwareModel); ok {
		gm.SetGateSource(gateFn)
	}

	for i, op := range log.Ops {
		switch op.Kind {
		case OpEnqueue:
			gates[op.Sub.Query.ID] = op.Gate
			real.Enqueue(op.Sub, op.Now)
			model.Enqueue(op.Sub, op.Now)
		case OpDecision:
			snap = op.Resident
			snapVersion++
			rGot := real.NextBatch(op.Now)
			mGot := model.NextBatch(op.Now, func(id store.AtomID) bool { return snap[id] })
			if op.Got != nil && !batchesEqual(rGot, op.Got) {
				return &Divergence{
					Target: t.Name, OpIndex: i, Kind: "replay-vs-recorded",
					Detail: fmt.Sprintf("replay %s, recorded %s", describeBatches(rGot), describeBatches(op.Got)),
				}
			}
			if !batchesEqual(mGot, rGot) {
				return &Divergence{
					Target: t.Name, OpIndex: i, Kind: "model-vs-real",
					Detail: fmt.Sprintf("model %s, real %s", describeBatches(mGot), describeBatches(rGot)),
				}
			}
			if d := diffUtilities(t.Name, i, real, model, resident); d != nil {
				return d
			}
		case OpRunEnd:
			real.OnRunEnd(op.RT, op.TP)
			model.OnRunEnd(op.RT, op.TP)
		}
		if rp, mp := real.Pending(), model.Pending(); rp != mp {
			return &Divergence{
				Target: t.Name, OpIndex: i, Kind: "pending-mismatch",
				Detail: fmt.Sprintf("real has %d pending sub-queries, model %d", rp, mp),
			}
		}
	}
	if ra, ma := real.Alpha(), model.Alpha(); ra != ma {
		return &Divergence{
			Target: t.Name, OpIndex: len(log.Ops) - 1, Kind: "model-vs-real",
			Detail: fmt.Sprintf("final alpha: real %g, model %g", ra, ma),
		}
	}
	return nil
}

// diffUtilities compares the production scheduler's utility view against
// the model's naive rescan, when both sides expose one. Equality is
// strict (==): the incremental structures promise bit-identical floats,
// not approximations, because the URC cache policy ranks on these exact
// values.
func diffUtilities(name string, opIndex int, real sched.Scheduler, model Model, resident func(store.AtomID) bool) *Divergence {
	up, ok := real.(sched.UtilityProvider)
	if !ok {
		return nil
	}
	um, ok := model.(UtilityModel)
	if !ok {
		return nil
	}
	rSteps, mSteps := up.PendingSteps(), um.PendingSteps()
	if len(rSteps) != len(mSteps) {
		return &Divergence{
			Target: name, OpIndex: opIndex, Kind: "utility-mismatch",
			Detail: fmt.Sprintf("pending steps: real %v, model %v", rSteps, mSteps),
		}
	}
	for k := range mSteps {
		if rSteps[k] != mSteps[k] {
			return &Divergence{
				Target: name, OpIndex: opIndex, Kind: "utility-mismatch",
				Detail: fmt.Sprintf("pending steps: real %v, model %v", rSteps, mSteps),
			}
		}
	}
	for _, step := range mSteps {
		if r, m := up.StepMean(step), um.StepMean(step, resident); r != m {
			return &Divergence{
				Target: name, OpIndex: opIndex, Kind: "utility-mismatch",
				Detail: fmt.Sprintf("step %d mean U_t: real %v, model %v", step, r, m),
			}
		}
	}
	for _, id := range um.PendingAtoms() {
		if r, m := up.AtomUtility(id), um.AtomUtility(id, resident); r != m {
			return &Divergence{
				Target: name, OpIndex: opIndex, Kind: "utility-mismatch",
				Detail: fmt.Sprintf("atom s%d/a%d U_t: real %v, model %v", id.Step, id.Code, r, m),
			}
		}
	}
	return nil
}

// Shrink reduces a diverging op log to a locally minimal reproducer:
// first everything after the divergence point is dropped, then
// difftest.Shrink removes ops while the model and the production scheduler
// still disagree. Recorded answers are stripped — after surgery the
// recording no longer corresponds to any real run; the model-vs-real
// disagreement is the property being preserved. Shrink returns the log
// unchanged (minus recordings) when the target does not diverge on it.
func Shrink(t Target, log *OpLog) *OpLog {
	cur := &OpLog{Ops: make([]Op, len(log.Ops))}
	for i, op := range log.Ops {
		op.Got = nil
		cur.Ops[i] = op
	}
	d := Diff(t, cur)
	if d == nil {
		return cur
	}
	cur.Ops = difftest.Shrink(cur.Ops[:min(d.OpIndex+1, len(cur.Ops))], func(ops []Op) bool {
		return Diff(t, &OpLog{Ops: ops}) != nil
	})
	return cur
}
