package obs

import (
	"bytes"
	"testing"
	"time"
)

// TestFlightNilSafety pins the recorder's nil contract: every method on
// a nil *FlightRecorder is a no-op, which is what keeps the engine's
// decision path branch-only when recording is off.
func TestFlightNilSafety(t *testing.T) {
	var r *FlightRecorder
	if r.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	r.Record(&DecisionRecord{Seq: 1}) // must not panic
	if got := r.Records(); got != nil {
		t.Fatalf("nil recorder Records() = %v, want nil", got)
	}
	if got := r.Snapshot(); got != (FlightSnapshot{}) {
		t.Fatalf("nil recorder Snapshot() = %+v, want zero", got)
	}
}

// TestFlightUnbounded checks the retaining mode internal/bench uses:
// every record is kept, oldest first. A daemon's recorder keeps none.
func TestFlightUnbounded(t *testing.T) {
	r, daemon := NewFlightRecorder(true, nil, nil), NewFlightRecorder(false, nil, nil)
	for seq := int64(0); seq < 100; seq++ {
		r.Record(&DecisionRecord{Seq: seq})
		daemon.Record(&DecisionRecord{Seq: seq})
	}
	recs := r.Records()
	if len(recs) != 100 {
		t.Fatalf("retaining recorder kept %d records, want 100", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != int64(i) {
			t.Fatalf("Records()[%d].Seq = %d, want %d", i, rec.Seq, i)
		}
	}
	if got := daemon.Records(); got != nil {
		t.Fatalf("non-retaining recorder kept %d records", len(got))
	}
	if got := daemon.Snapshot().Decisions; got != 100 {
		t.Fatalf("non-retaining recorder aggregated %d decisions, want 100", got)
	}
}

// TestFlightAggregates checks the pass-over accounting Record maintains:
// batch-full per truncated atom, lost-race as the unexplained pending
// remainder, aged-in per runner-up step that led on raw U_t, gated per
// blocked edge — mirrored to both the snapshot and the registry.
func TestFlightAggregates(t *testing.T) {
	reg := NewRegistry()
	r := NewFlightRecorder(false, nil, reg)
	r.Record(&DecisionRecord{
		Seq:        0,
		WinnerStep: 3,
		Steps: []DecisionStep{
			// The winner; one runner-up that led on raw U_t (aged-in) and
			// one that lost outright.
			{Step: 3, MeanUt: 1.0, MeanUe: 2.0},
			{Step: 5, MeanUt: 1.5, MeanUe: 1.8},
			{Step: 7, MeanUt: 0.5, MeanUe: 0.6},
		},
		PendingAtoms: 10,
		Chosen:       []DecisionAtom{{Step: 3}, {Step: 3}},
		Truncated:    []DecisionAtom{{Step: 3}},
		Blocked:      []DecisionEdge{{Query: 1}, {Query: 2}},
	})
	got := r.Snapshot()
	want := FlightSnapshot{
		Decisions:       1,
		ChosenAtoms:     2,
		PassBatchFull:   1,
		PassLostRace:    7, // 10 pending − 2 chosen − 1 truncated
		PassAgedIn:      1,
		GatedEdgeRounds: 2,
	}
	if got != want {
		t.Fatalf("Snapshot() = %+v, want %+v", got, want)
	}
	for name, wantV := range map[string]int64{
		"jaws_sched_decisions_total":           1,
		"jaws_sched_chosen_atoms_total":        2,
		"jaws_sched_passover_batch_full_total": 1,
		"jaws_sched_passover_lost_race_total":  7,
		"jaws_sched_passover_aged_in_total":    1,
		"jaws_sched_gated_edge_rounds_total":   2,
	} {
		if v := reg.Counter(name).Value(); v != wantV {
			t.Errorf("%s = %d, want %d", name, v, wantV)
		}
	}
}

// TestFlightTraceMirror checks that recorded decisions reach the tracer
// as decision_record events with the record attached.
func TestFlightTraceMirror(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	r := NewFlightRecorder(false, tr, nil)
	r.Record(&DecisionRecord{Seq: 42, T: 5 * time.Millisecond, Sched: "jaws2", WinnerStep: 3})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var found bool
	err := ScanTrace(&buf, func(ev *Event) error {
		if ev.Kind != KindDecisionRecord {
			return nil
		}
		found = true
		if ev.Flight.Seq != 42 || ev.Flight.Sched != "jaws2" || ev.Flight.WinnerStep != 3 {
			t.Fatalf("flight record round-tripped wrong: %+v", ev.Flight)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("no decision_record event in the trace")
	}
}
