// Package job models scientific jobs (§IV): collections of queries that
// belong to the same experiment. Batched jobs contain independent queries;
// ordered jobs contain a sequence with data dependencies — each query may
// only run after its predecessor completes (e.g. particle tracking, where
// the positions at the next time step are computed from the previous
// result).
//
// The package also implements the job-identification heuristics of §IV.A:
// grouping a raw query log into jobs using user ID, operation, time-step
// progression, and inter-arrival gaps.
package job

import (
	"fmt"
	"sort"
	"time"

	"jaws/internal/field"
	"jaws/internal/query"
)

// Type distinguishes the two job classes of §IV.
type Type int

const (
	// Batched jobs contain queries that may execute independently and in
	// any order; JAWS treats them like one-off queries.
	Batched Type = iota
	// Ordered jobs require queries to execute strictly in sequence
	// because each reuses its predecessor's result.
	Ordered
)

// String names the job type.
func (t Type) String() string {
	switch t {
	case Batched:
		return "batched"
	case Ordered:
		return "ordered"
	}
	return fmt.Sprintf("type(%d)", int(t))
}

// Job is a collection of queries from one experiment.
type Job struct {
	ID      int64
	User    int
	Type    Type
	Queries []*query.Query
	// ThinkTime is the wall-clock pause between a query's completion and
	// the submission of its successor in an ordered job (the scientist's
	// out-of-database computation).
	ThinkTime time.Duration
}

// Validate checks structural invariants: non-empty, consistent job IDs and
// sequence numbers.
func (j *Job) Validate() error {
	if len(j.Queries) == 0 {
		return fmt.Errorf("job %d: no queries", j.ID)
	}
	for i, q := range j.Queries {
		if q.JobID != j.ID {
			return fmt.Errorf("job %d: query %d carries job ID %d", j.ID, q.ID, q.JobID)
		}
		if j.Type == Ordered && q.Seq != i {
			return fmt.Errorf("job %d: query at index %d has seq %d", j.ID, i, q.Seq)
		}
	}
	return nil
}

// TraceRecord is one line of the (simulated) SQL log: what the cluster
// actually observes about a query, without job labels. Job identification
// reconstructs jobs from these.
type TraceRecord struct {
	QueryID   query.ID
	User      int
	Kernel    field.Kernel
	Step      int
	NumPoints int
	Submitted time.Duration
	// TrueJobID is ground truth carried by the synthetic generator for
	// measuring identification accuracy; a real log would not have it.
	TrueJobID int64
}

// IdentifyParams tune the heuristics of §IV.A.
type IdentifyParams struct {
	// MaxGap is the largest wall-clock gap between consecutive queries of
	// the same job. The paper observes most jobs iterate with think times
	// of seconds to minutes.
	MaxGap time.Duration
	// MaxStepDelta is the largest time-step jump between consecutive
	// queries of one job (ordered jobs advance by small deltas).
	MaxStepDelta int
}

// DefaultIdentifyParams returns the tuning used in the evaluation.
func DefaultIdentifyParams() IdentifyParams {
	return IdentifyParams{MaxGap: 5 * time.Minute, MaxStepDelta: 4}
}

// Identify groups trace records into inferred jobs using the §IV.A
// heuristics: records belong to the same job when they come from the same
// user, perform the same operation (kernel), follow within MaxGap of the
// previous record, and access a time step within MaxStepDelta of it.
// Records are processed in submission order; each is appended to the most
// recent compatible open job of its user, else it opens a new job.
// The returned assignment maps each query to an inferred job label.
func Identify(records []TraceRecord, p IdentifyParams) map[query.ID]int64 {
	recs := append([]TraceRecord(nil), records...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Submitted < recs[j].Submitted })

	type open struct {
		label    int64
		kernel   field.Kernel
		lastStep int
		lastTime time.Duration
		size     int
	}
	assignment := make(map[query.ID]int64, len(recs))
	byUser := make(map[int][]*open)
	var nextLabel int64 = 1

	for _, r := range recs {
		var best *open
		for _, o := range byUser[r.User] {
			if o.kernel != r.Kernel {
				continue
			}
			if r.Submitted-o.lastTime > p.MaxGap {
				continue
			}
			delta := r.Step - o.lastStep
			if delta < 0 {
				delta = -delta
			}
			if delta > p.MaxStepDelta {
				continue
			}
			if best == nil || o.lastTime > best.lastTime {
				best = o
			}
		}
		if best == nil {
			best = &open{label: nextLabel, kernel: r.Kernel}
			nextLabel++
			byUser[r.User] = append(byUser[r.User], best)
		}
		best.lastStep = r.Step
		best.lastTime = r.Submitted
		best.size++
		assignment[r.QueryID] = best.label

		// Garbage-collect long-closed jobs to keep the scan short.
		opens := byUser[r.User][:0]
		for _, o := range byUser[r.User] {
			if r.Submitted-o.lastTime <= p.MaxGap {
				opens = append(opens, o)
			}
		}
		byUser[r.User] = opens
	}
	return assignment
}

// Accuracy scores an inferred assignment against the ground-truth job IDs
// carried in the records using pairwise Rand-index style accuracy: over
// all pairs of queries from the same user, the fraction where
// "same inferred job" agrees with "same true job". This is the measure
// behind the paper's claim that the heuristics are "highly accurate in
// practice" (§IV.A, §VI).
func Accuracy(records []TraceRecord, assignment map[query.ID]int64) float64 {
	byUser := make(map[int][]TraceRecord)
	for _, r := range records {
		byUser[r.User] = append(byUser[r.User], r)
	}
	var agree, total int64
	for _, recs := range byUser {
		for i := 0; i < len(recs); i++ {
			for j := i + 1; j < len(recs); j++ {
				sameTrue := recs[i].TrueJobID == recs[j].TrueJobID
				sameInferred := assignment[recs[i].QueryID] == assignment[recs[j].QueryID]
				if sameTrue == sameInferred {
					agree++
				}
				total++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(agree) / float64(total)
}
