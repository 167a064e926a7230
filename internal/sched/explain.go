package sched

import (
	"time"

	"jaws/internal/obs"
)

// Explain is the decision capture a scheduler fills during NextBatch
// when explanation is on: one obs.DecisionRecord, less what only the
// engine knows (Engine, Seq, T, Blocked). The engine reads it through
// Explained immediately after the decision and adopts its slices into a
// fresh record, so every enabled round builds fresh slices (resetExplain
// nils them) and the disabled path costs one branch per capture site — the
// zero-alloc invariant pinned by TestDecisionPathZeroAllocs.
type Explain = obs.DecisionRecord

// resetExplain prepares the capture for one decision round. The slices
// are nil-ed, not truncated: the previous round's arrays now belong to the
// record the engine built from them.
func resetExplain(e *Explain, sched string, alpha float64, pendingAtoms, pendingSubs int) {
	*e = Explain{
		Sched: sched, Alpha: alpha, WinnerStep: -1,
		PendingAtoms: pendingAtoms, PendingSubs: pendingSubs,
	}
}

// captureStep records one candidate step bucket with its mean metrics.
func captureStep(e *Explain, q *queues, b *stepBucket, alpha float64, now time.Duration) {
	n := len(b.atoms)
	if n == 0 {
		return
	}
	e.Steps = append(e.Steps, obs.DecisionStep{
		Step:   b.step,
		Atoms:  n,
		MeanUt: q.stepUtSum(b) / float64(n),
		MeanUe: q.stepUeSum(b, alpha, now) / float64(n),
	})
}

// captureAtom appends one involved atom to dst with its utility
// components and the queries riding it. ue is the already-computed Eq. 2
// score.
func captureAtom(dst *[]obs.DecisionAtom, q *queues, aq *atomQueue, ue float64, now time.Duration) {
	a := obs.DecisionAtom{
		Step:  aq.id.Step,
		Code:  uint64(aq.id.Code),
		Ut:    q.ut(aq),
		Ue:    ue,
		AgeMS: float64(now-aq.oldest) / float64(time.Millisecond),
		Subs:  len(aq.subs),
	}
	a.Queries = make([]int64, 0, len(aq.subs))
	for _, sq := range aq.subs {
		a.Queries = append(a.Queries, int64(sq.Query.ID))
	}
	*dst = append(*dst, a)
}

// Explained is implemented by schedulers that can capture a per-decision
// Explain. The engine flips capture on when a flight recorder is
// configured and reads the capture right after each NextBatch; the
// returned pointer stays owned by the scheduler, but the slices inside
// are fresh each round and may be adopted by the reader.
type Explained interface {
	// SetExplain enables or disables decision capture.
	SetExplain(on bool)
	// LastExplain returns the capture of the most recent NextBatch (nil
	// when capture is off). Valid only until the next NextBatch call.
	LastExplain() *Explain
}
