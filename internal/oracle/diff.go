package oracle

import (
	"fmt"
	"slices"
	"strings"

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
// fresh reference model, stepping a schedPair op by op. When the log still
// carries recorded answers (Op.Got), the production replay is also
// checked against the recording — a determinism and
// recording-completeness audit. It returns the first divergence, or nil
// when the sides agree over the whole log.
func Diff(t Target, log *OpLog) *Divergence {
	p := newSchedPair(t)
	for _, op := range log.Ops {
		if d := p.step(op); d != nil {
			return d
		}
	}
	return nil
}

// schedPair is the scheduler pair's one differential driver, as
// GatingPair is the job graph's: a target's production scheduler and its
// reference model, fed the same ops and compared after each. Diff steps
// one through a captured log; the random op logs step one per target.
//
// The pair installs a residency version source on the production
// scheduler — bumped whenever a decision's snapshot replaces the current
// one — so memos live across calls, as they do under the engine, and that
// is what is certified. After every decision the production
// UtilityProvider view (AtomUtility, StepMean, PendingSteps) is compared
// against the model's naive rescan with strict float equality, and so are
// the QoS deadline verdicts; after every op, the pending count and α.
type schedPair struct {
	name    string
	real    sched.Scheduler
	model   Model
	snap    map[store.AtomID]bool
	version uint64
	// gates holds the gate state each query was enqueued under. Gate-aware
	// targets read it through the same source on both sides — the
	// production scheduler at Enqueue, the model at every decision — so a
	// disagreement is a decision-rule divergence, or a query whose state
	// moved while it was pending.
	gates map[query.ID]sched.GateState
	next  int // the index of the next op
}

// deadlineCounter is the QoS verdict count: sched.JAWS's and modelJAWS's
// (0 without QoS).
type deadlineCounter interface{ DeadlineMisses() int }

func newSchedPair(t Target) *schedPair {
	p := &schedPair{name: t.Name, version: 1, gates: make(map[query.ID]sched.GateState)}
	p.real, p.model = t.New(p.resident), t.NewModel()
	if rv, ok := p.real.(sched.ResidencyVersioned); ok {
		rv.SetResidencyVersion(func() uint64 { return p.version })
	}
	gateFn := func(q query.ID) sched.GateState { return p.gates[q] }
	if ga, ok := p.real.(sched.GateAware); ok {
		ga.SetGateSource(gateFn)
	}
	if gm, ok := p.model.(GateAwareModel); ok {
		gm.SetGateSource(gateFn)
	}
	return p
}

func (p *schedPair) resident(id store.AtomID) bool { return p.snap[id] }

// diverge reports a disagreement at the op just stepped.
func (p *schedPair) diverge(kind, format string, args ...any) *Divergence {
	return &Divergence{Target: p.name, OpIndex: p.next - 1, Kind: kind, Detail: fmt.Sprintf(format, args...)}
}

// step applies op to both sides and returns their first disagreement, or
// nil.
func (p *schedPair) step(op Op) *Divergence {
	p.next++
	switch op.Kind {
	case OpEnqueue:
		p.gates[op.Sub.Query.ID] = op.Gate
		p.real.Enqueue(op.Sub, op.Now)
		p.model.Enqueue(op.Sub, op.Now)
	case OpDecision:
		p.snap = op.Resident
		p.version++
		rGot := p.real.NextBatch(op.Now)
		mGot := p.model.NextBatch(op.Now, p.resident)
		if op.Got != nil && !batchesEqual(rGot, op.Got) {
			return p.diverge("replay-vs-recorded", "replay %s, recorded %s", describeBatches(rGot), describeBatches(op.Got))
		}
		if !batchesEqual(mGot, rGot) {
			return p.diverge("model-vs-real", "model %s, real %s", describeBatches(mGot), describeBatches(rGot))
		}
		if rd, ok := p.real.(deadlineCounter); ok {
			if md, ok := p.model.(deadlineCounter); ok && rd.DeadlineMisses() != md.DeadlineMisses() {
				return p.diverge("model-vs-real", "deadline misses: real %d, model %d", rd.DeadlineMisses(), md.DeadlineMisses())
			}
		}
		if d := p.diffUtilities(); d != nil {
			return d
		}
	case OpRunEnd:
		p.real.OnRunEnd(op.RT, op.TP)
		p.model.OnRunEnd(op.RT, op.TP)
	}
	if rp, mp := p.real.Pending(), p.model.Pending(); rp != mp {
		return p.diverge("pending-mismatch", "real has %d pending sub-queries, model %d", rp, mp)
	}
	if ra, ma := p.real.Alpha(), p.model.Alpha(); ra != ma {
		return p.diverge("model-vs-real", "alpha: real %g, model %g", ra, ma)
	}
	return nil
}

// diffUtilities compares the production scheduler's utility view against
// the model's naive rescan, when both sides expose one. Equality is
// strict (==): the incremental structures promise bit-identical floats,
// not approximations, because the URC cache policy ranks on these exact
// values.
func (p *schedPair) diffUtilities() *Divergence {
	up, ok := p.real.(sched.UtilityProvider)
	if !ok {
		return nil
	}
	um, ok := p.model.(UtilityModel)
	if !ok {
		return nil
	}
	mSteps := um.PendingSteps()
	if rSteps := up.PendingSteps(); !slices.Equal(rSteps, mSteps) {
		return p.diverge("utility-mismatch", "pending steps: real %v, model %v", rSteps, mSteps)
	}
	for _, step := range mSteps {
		if r, m := up.StepMean(step), um.StepMean(step, p.resident); r != m {
			return p.diverge("utility-mismatch", "step %d mean U_t: real %v, model %v", step, r, m)
		}
	}
	for _, id := range um.PendingAtoms() {
		if r, m := up.AtomUtility(id), um.AtomUtility(id, p.resident); r != m {
			return p.diverge("utility-mismatch", "atom s%d/a%d U_t: real %v, model %v", id.Step, id.Code, r, m)
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

// FormatOps renders an op log compactly, one op per line — the shape a
// shrunk reproducer is reported in.
func FormatOps(log *OpLog) string {
	var b strings.Builder
	for i, op := range log.Ops {
		switch op.Kind {
		case OpEnqueue:
			fmt.Fprintf(&b, "%3d: enq   q%d s%d/a%d ×%d @%v gate=%d\n",
				i, op.Sub.Query.ID, op.Sub.Atom.Step, op.Sub.Atom.Code, len(op.Sub.Index), op.Now, op.Gate)
		case OpDecision:
			fmt.Fprintf(&b, "%3d: dec   @%v resident=%d\n", i, op.Now, len(op.Resident))
		case OpRunEnd:
			fmt.Fprintf(&b, "%3d: run   rt=%g tp=%g\n", i, op.RT, op.TP)
		}
	}
	return b.String()
}
