package obs

import (
	"sync"
	"time"
)

// The decision flight recorder captures one compact DecisionRecord per
// scheduler NextBatch round: the winning step and batch, the runner-up
// steps with their mean-utility margins, the current age bias, queue
// depths, and the gating edges holding arrived-but-undispatched queries.
// Joined with the engine's query spans (by query ID and virtual decision
// time) the records reconstruct *why* a query waited — which rounds it
// was eligible but passed over, and to whom it lost — not just how long
// (see WaitChain).
//
// Cost contract: the recorder follows the package's nil-safety rule
// (every method on a nil *FlightRecorder is a no-op), and the scheduler
// side captures nothing until the engine flips it on, so the decision
// path stays zero-alloc when recording is disabled. With recording on,
// each round allocates one record; ownership transfers to the recorder
// at Record and the record is immutable afterwards.

// DecisionStep is one candidate time step at decision time: the step
// bucket's size and its mean Eq. 1 / Eq. 2 metrics. The winner is the
// step with the highest MeanUe; comparing a runner-up's MeanUt against
// the winner's shows whether the age term decided the round.
type DecisionStep struct {
	Step   int     `json:"step"`
	Atoms  int     `json:"atoms"`
	MeanUt float64 `json:"mut"`
	MeanUe float64 `json:"mue"`
}

// DecisionAtom is one atom involved in a decision — chosen into the
// batch, or truncated away by the batch bound — with the utility
// components that ranked it and the queries riding it.
type DecisionAtom struct {
	Step  int     `json:"step"`
	Code  uint64  `json:"code"`
	Ut    float64 `json:"ut,omitempty"`
	Ue    float64 `json:"ue,omitempty"`
	AgeMS float64 `json:"age_ms,omitempty"`
	// Subs is the number of sub-queries pending on the atom.
	Subs int `json:"subs,omitempty"`
	// Queries are the IDs of the queries with sub-queries on the atom.
	Queries []int64 `json:"queries,omitempty"`
}

// DecisionEdge is one gating edge observed holding an arrived query at
// decision time: query (Job, Seq) is blocked behind partner (OnJob,
// OnSeq). OnQuery carries the upstream query ID when the engine can
// resolve it (the partner has arrived), 0 otherwise.
type DecisionEdge struct {
	Query   int64 `json:"query"`
	Job     int64 `json:"job"`
	Seq     int   `json:"seq"`
	OnJob   int64 `json:"on_job"`
	OnSeq   int   `json:"on_seq"`
	OnQuery int64 `json:"on_query,omitempty"`
}

// DecisionRecord is one scheduler decision round. Join keys: Engine
// scopes the virtual timeline when several engines share a tracer, T is
// the virtual decision time (the same clock as Span), Seq is the
// engine's decision counter, and Chosen[i].Queries / Blocked[i].Query
// name the query IDs that spans carry.
type DecisionRecord struct {
	Engine int           `json:"engine,omitempty"`
	Seq    int64         `json:"seq"`
	T      time.Duration `json:"t"`
	Sched  string        `json:"sched"`
	Alpha  float64       `json:"alpha,omitempty"`
	// Urgent marks a QoS earliest-deadline-first round that bypassed the
	// utility race.
	Urgent bool `json:"urgent,omitempty"`
	// WinnerStep is the step of the chosen bucket (-1 when the scheduler
	// has no step level, e.g. NoShare).
	WinnerStep int `json:"winner_step"`
	// PendingAtoms / PendingSubs are the queue depths before the pick.
	PendingAtoms int `json:"pending_atoms"`
	PendingSubs  int `json:"pending_subs"`
	// Steps are the candidate steps in ascending step order.
	Steps []DecisionStep `json:"steps,omitempty"`
	// Chosen are the batched atoms in execution order; Chosen[i]
	// corresponds to the round's i-th batch.
	Chosen []DecisionAtom `json:"chosen,omitempty"`
	// Truncated are above-mean candidates dropped by the batch bound k,
	// most contentious first.
	Truncated []DecisionAtom `json:"truncated,omitempty"`
	// Blocked are the gating edges holding arrived queries at this round.
	Blocked []DecisionEdge `json:"blocked,omitempty"`
}

// stepMean returns the record's entry for step, nil when absent.
func (r *DecisionRecord) stepMean(step int) *DecisionStep {
	for i := range r.Steps {
		if r.Steps[i].Step == step {
			return &r.Steps[i]
		}
	}
	return nil
}

// FlightSnapshot is the recorder's live aggregate view: decision-round
// and pass-over counts by cause, maintained at Record time so /varz can
// serve them without keeping the records.
type FlightSnapshot struct {
	// Decisions counts recorded decision rounds.
	Decisions int64 `json:"decisions"`
	// ChosenAtoms counts atoms batched across recorded rounds.
	ChosenAtoms int64 `json:"chosen_atoms"`
	// PassBatchFull counts above-mean candidates dropped by the batch
	// bound (batch-full pass-overs).
	PassBatchFull int64 `json:"passover_batch_full"`
	// PassLostRace counts queued atoms passed over after losing the
	// utility race (pending − chosen − truncated, per round).
	PassLostRace int64 `json:"passover_lost_race"`
	// PassAgedIn counts runner-up steps that out-ranked the winner on raw
	// U_t but lost on the aged U_e — rounds the age bias decided.
	PassAgedIn int64 `json:"passover_aged_in"`
	// GatedEdgeRounds counts gating edges observed holding arrived
	// queries, summed over rounds (an edge blocking for n rounds counts n).
	GatedEdgeRounds int64 `json:"gated_edge_rounds"`
}

// flightMetricHelp is the # HELP text for the recorder's registry
// metrics.
var flightMetricHelp = map[string]string{
	"jaws_sched_decisions_total":           "Scheduler decision rounds recorded by the flight recorder.",
	"jaws_sched_chosen_atoms_total":        "Atoms chosen into batches across recorded decision rounds.",
	"jaws_sched_passover_batch_full_total": "Above-mean candidate atoms dropped by the batch bound k.",
	"jaws_sched_passover_lost_race_total":  "Queued atoms passed over after losing the utility race.",
	"jaws_sched_passover_aged_in_total":    "Runner-up steps that led on raw U_t but lost on aged U_e (rounds decided by the age bias).",
	"jaws_sched_gated_edge_rounds_total":   "Gating edges observed holding arrived queries, summed over decision rounds.",
}

// FlightRecorder maintains the live pass-over aggregates of scheduler
// decision records, mirrors the records to the tracer as
// "decision_record" events when one is configured, and keeps them in
// memory only when built to. All methods are nil-safe.
type FlightRecorder struct {
	mu     sync.Mutex
	retain bool
	all    []DecisionRecord
	snap   FlightSnapshot
	trace  *Tracer

	cDecisions, cChosen, cBatchFull *Counter
	cLostRace, cAgedIn, cGated      *Counter
}

// NewFlightRecorder creates a recorder. retain keeps every record for
// Records — the analysis mode internal/bench uses so attribution never
// loses a round; a daemon passes false and reads its records back from
// the trace. trace, when non-nil, receives every record as a
// "decision_record" event; reg, when non-nil, receives the jaws_sched_*
// counters.
func NewFlightRecorder(retain bool, trace *Tracer, reg *Registry) *FlightRecorder {
	r := &FlightRecorder{retain: retain, trace: trace}
	if reg != nil {
		for name, help := range flightMetricHelp {
			reg.Describe(name, help)
		}
		r.cDecisions = reg.Counter("jaws_sched_decisions_total")
		r.cChosen = reg.Counter("jaws_sched_chosen_atoms_total")
		r.cBatchFull = reg.Counter("jaws_sched_passover_batch_full_total")
		r.cLostRace = reg.Counter("jaws_sched_passover_lost_race_total")
		r.cAgedIn = reg.Counter("jaws_sched_passover_aged_in_total")
		r.cGated = reg.Counter("jaws_sched_gated_edge_rounds_total")
	}
	return r
}

// Enabled reports whether the recorder is live (non-nil). Hot paths
// branch on this once per decision.
func (r *FlightRecorder) Enabled() bool { return r != nil }

// Record takes ownership of one decision record: rec and its slices
// must not be touched by the caller afterwards. The record is
// aggregated, retained if the recorder keeps records, and mirrored to
// the tracer. Nil-safe no-op.
func (r *FlightRecorder) Record(rec *DecisionRecord) {
	if r == nil || rec == nil {
		return
	}

	// Pass-over accounting by cause, at the granularity each cause is
	// observable: batch-full and lost-race per atom, aged-in per
	// runner-up step, gated per edge.
	agedIn := 0
	if win := rec.stepMean(rec.WinnerStep); win != nil {
		for i := range rec.Steps {
			s := &rec.Steps[i]
			if s.Step != rec.WinnerStep && s.MeanUt > win.MeanUt {
				agedIn++
			}
		}
	}
	lostRace := rec.PendingAtoms - len(rec.Chosen) - len(rec.Truncated)
	if lostRace < 0 {
		lostRace = 0
	}

	r.mu.Lock()
	r.snap.Decisions++
	r.snap.ChosenAtoms += int64(len(rec.Chosen))
	r.snap.PassBatchFull += int64(len(rec.Truncated))
	r.snap.PassLostRace += int64(lostRace)
	r.snap.PassAgedIn += int64(agedIn)
	r.snap.GatedEdgeRounds += int64(len(rec.Blocked))
	if r.retain {
		r.all = append(r.all, *rec)
	}
	r.mu.Unlock()

	r.cDecisions.Inc()
	r.cChosen.Add(int64(len(rec.Chosen)))
	r.cBatchFull.Add(int64(len(rec.Truncated)))
	r.cLostRace.Add(int64(lostRace))
	r.cAgedIn.Add(int64(agedIn))
	r.cGated.Add(int64(len(rec.Blocked)))

	r.trace.DecisionRecordDone(rec)
}

// Snapshot returns the live aggregates (zero value for nil).
func (r *FlightRecorder) Snapshot() FlightSnapshot {
	if r == nil {
		return FlightSnapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snap
}

// Records returns a copy of the retained decision records, oldest
// first; nil unless the recorder was built to retain them.
func (r *FlightRecorder) Records() []DecisionRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]DecisionRecord(nil), r.all...)
}
