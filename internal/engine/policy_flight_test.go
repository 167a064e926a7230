package engine

import (
	"testing"

	"jaws/internal/cache"
	"jaws/internal/field"
	"jaws/internal/job"
	"jaws/internal/obs"
	"jaws/internal/query"
	"jaws/internal/sched"
)

// TestAdaptiveBatchMirrorsFlightRecorder pins what the adaptive-batch
// policy steers on, as the operator sees it: the per-round truncation the
// decisions report is the flight recorder's PassBatchFull, and sustained
// truncation grows k — a retained record batches more than the initial
// bound of one atom.
func TestAdaptiveBatchMirrorsFlightRecorder(t *testing.T) {
	s := testStore(t)
	spec, err := sched.ParsePolicySpec("adaptive-batch:min=1,max=4,grow=1,shrink=1,full=1,idle=50")
	if err != nil {
		t.Fatal(err)
	}
	c := cache.New(16, cache.NewLRUK(1, 0))
	inner := sched.NewJAWS(sched.JAWSConfig{
		Cost: testCost, BatchSize: 1, InitialAlpha: 0.5, Adaptive: true,
		Resident: c.Contains,
	})
	spec.Wrap(inner)
	rec := obs.NewFlightRecorder(true, nil, nil)
	e, err := New(Config{
		Store: s, Cache: c, Sched: inner, Cost: testCost,
		Obs: &obs.Obs{Flight: rec},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Contention on one step: six heavy atoms and two light ones (two rows
	// of the 4×4×4 atom grid), all pending at once against k = 1, so early
	// rounds drop most of the above-mean candidates and the policy must
	// grow k.
	var jobs []*job.Job
	for i := 0; i < 8; i++ {
		n := 100
		if i >= 6 {
			n = 10
		}
		jobs = append(jobs, &job.Job{
			ID: int64(i + 1), User: i + 1, Type: job.Batched,
			Queries: []*query.Query{{
				ID: query.ID(i + 1), JobID: int64(i + 1), Step: 0,
				Points: pointsInAtom(s, uint32(i%4), uint32(i/4), 0, n),
				Kernel: field.KernelNone,
			}},
		})
	}
	rep, err := e.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(jobs) {
		t.Fatalf("completed %d queries, want %d", rep.Completed, len(jobs))
	}

	if snap := rec.Snapshot(); snap.PassBatchFull == 0 {
		t.Fatal("the contended run produced no batch-full pass-overs; the steer had nothing to steer on")
	}
	grew := false
	for _, r := range rec.Records() {
		grew = grew || len(r.Chosen) > 1
	}
	if !grew {
		t.Error("sustained truncation did not grow the batch bound: every record chose at most one atom")
	}
}
