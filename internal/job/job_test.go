package job

import (
	"testing"
	"time"

	"jaws/internal/field"
	"jaws/internal/geom"
	"jaws/internal/query"
)

func mkJob(id int64, typ Type, n int) *Job {
	j := &Job{ID: id, User: 1, Type: typ}
	for i := 0; i < n; i++ {
		j.Queries = append(j.Queries, &query.Query{
			ID:     query.ID(id*1000 + int64(i)),
			JobID:  id,
			Seq:    i,
			Step:   i,
			Points: []geom.Position{{X: 1, Y: 1, Z: 1}},
		})
	}
	return j
}

func TestTypeString(t *testing.T) {
	if Batched.String() != "batched" || Ordered.String() != "ordered" {
		t.Fatal("type names wrong")
	}
	if Type(9).String() == "" {
		t.Fatal("unknown type renders empty")
	}
}

func TestValidate(t *testing.T) {
	if err := mkJob(1, Ordered, 3).Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	empty := &Job{ID: 1}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty job accepted")
	}
	wrongID := mkJob(1, Ordered, 2)
	wrongID.Queries[1].JobID = 99
	if err := wrongID.Validate(); err == nil {
		t.Fatal("inconsistent job ID accepted")
	}
	wrongSeq := mkJob(1, Ordered, 2)
	wrongSeq.Queries[1].Seq = 5
	if err := wrongSeq.Validate(); err == nil {
		t.Fatal("out-of-order seq accepted")
	}
	// Batched jobs do not require sequential Seq.
	batched := mkJob(2, Batched, 2)
	batched.Queries[1].Seq = 7
	if err := batched.Validate(); err != nil {
		t.Fatalf("batched job with loose seq rejected: %v", err)
	}
}

func TestLen(t *testing.T) {
	if len(mkJob(1, Ordered, 5).Queries) != 5 {
		t.Fatal("Len wrong")
	}
}

// mkTrace produces records for one synthetic job: user u, consecutive
// steps, fixed kernel, gap between submissions.
func mkTrace(jobID int64, u int, kernel field.Kernel, startStep int, n int, start, gap time.Duration, firstQID query.ID) []TraceRecord {
	recs := make([]TraceRecord, n)
	for i := 0; i < n; i++ {
		recs[i] = TraceRecord{
			QueryID:   firstQID + query.ID(i),
			User:      u,
			Kernel:    kernel,
			Step:      startStep + i,
			NumPoints: 100,
			Submitted: start + time.Duration(i)*gap,
			TrueJobID: jobID,
		}
	}
	return recs
}

func TestIdentifySingleJob(t *testing.T) {
	recs := mkTrace(1, 7, field.KernelLag4, 0, 10, 0, 30*time.Second, 1)
	got := Identify(recs, DefaultIdentifyParams())
	label := got[recs[0].QueryID]
	for _, r := range recs {
		if got[r.QueryID] != label {
			t.Fatalf("job split: query %d got label %d, want %d", r.QueryID, got[r.QueryID], label)
		}
	}
}

func TestIdentifySplitsOnGap(t *testing.T) {
	a := mkTrace(1, 7, field.KernelLag4, 0, 3, 0, 30*time.Second, 1)
	b := mkTrace(2, 7, field.KernelLag4, 3, 3, 2*time.Hour, 30*time.Second, 100)
	got := Identify(append(a, b...), DefaultIdentifyParams())
	if got[a[0].QueryID] == got[b[0].QueryID] {
		t.Fatal("two-hour gap did not split jobs")
	}
}

func TestIdentifySplitsOnUser(t *testing.T) {
	a := mkTrace(1, 7, field.KernelLag4, 0, 3, 0, 30*time.Second, 1)
	b := mkTrace(2, 8, field.KernelLag4, 0, 3, 0, 30*time.Second, 100)
	got := Identify(append(a, b...), DefaultIdentifyParams())
	if got[a[0].QueryID] == got[b[0].QueryID] {
		t.Fatal("different users merged into one job")
	}
}

func TestIdentifySplitsOnKernel(t *testing.T) {
	a := mkTrace(1, 7, field.KernelLag4, 0, 3, 0, 30*time.Second, 1)
	b := mkTrace(2, 7, field.KernelLag8, 0, 3, 15*time.Second, 30*time.Second, 100)
	got := Identify(append(a, b...), DefaultIdentifyParams())
	if got[a[0].QueryID] == got[b[0].QueryID] {
		t.Fatal("different operations merged into one job")
	}
}

func TestIdentifySplitsOnStepJump(t *testing.T) {
	a := mkTrace(1, 7, field.KernelLag4, 0, 3, 0, 30*time.Second, 1)
	// Same user/kernel, small time gap, but a jump of 100 time steps.
	b := mkTrace(2, 7, field.KernelLag4, 200, 3, 2*time.Minute, 30*time.Second, 100)
	got := Identify(append(a, b...), DefaultIdentifyParams())
	if got[a[0].QueryID] == got[b[0].QueryID] {
		t.Fatal("large step jump merged into one job")
	}
}

func TestIdentifyInterleavedUsers(t *testing.T) {
	// Two users' jobs interleaved in time must stay separate and intact.
	a := mkTrace(1, 1, field.KernelLag4, 0, 5, 0, time.Minute, 1)
	b := mkTrace(2, 2, field.KernelLag4, 10, 5, 30*time.Second, time.Minute, 100)
	got := Identify(append(a, b...), DefaultIdentifyParams())
	for _, r := range a[1:] {
		if got[r.QueryID] != got[a[0].QueryID] {
			t.Fatal("user 1 job fractured")
		}
	}
	for _, r := range b[1:] {
		if got[r.QueryID] != got[b[0].QueryID] {
			t.Fatal("user 2 job fractured")
		}
	}
	if got[a[0].QueryID] == got[b[0].QueryID] {
		t.Fatal("interleaved users merged")
	}
}

func TestIdentifyEmptyInput(t *testing.T) {
	if got := Identify(nil, DefaultIdentifyParams()); len(got) != 0 {
		t.Fatal("empty trace produced assignments")
	}
}

func TestAccuracyPerfect(t *testing.T) {
	recs := append(
		mkTrace(1, 1, field.KernelLag4, 0, 4, 0, time.Minute, 1),
		mkTrace(2, 1, field.KernelLag4, 0, 4, 3*time.Hour, time.Minute, 100)...,
	)
	got := Identify(recs, DefaultIdentifyParams())
	if acc := Accuracy(recs, got); acc != 1 {
		t.Fatalf("accuracy = %g, want 1 on well-separated jobs", acc)
	}
}

func TestAccuracyDegradedAssignment(t *testing.T) {
	recs := append(
		mkTrace(1, 1, field.KernelLag4, 0, 4, 0, time.Minute, 1),
		mkTrace(2, 1, field.KernelLag4, 0, 4, 3*time.Hour, time.Minute, 100)...,
	)
	// Deliberately merge everything into one label.
	bad := make(map[query.ID]int64)
	for _, r := range recs {
		bad[r.QueryID] = 1
	}
	if acc := Accuracy(recs, bad); acc >= 1 {
		t.Fatalf("merged assignment scored %g, want < 1", acc)
	}
}

func TestAccuracyEmptyTotal(t *testing.T) {
	if Accuracy(nil, nil) != 1 {
		t.Fatal("vacuous accuracy should be 1")
	}
}

// The paper's §IV.A claims the heuristics are "highly accurate in
// practice". Reproduce that on a messy synthetic log: many users, varied
// think times (within gap), interleaved jobs, back-to-back sessions.
func TestIdentifyAccuracyOnRealisticMix(t *testing.T) {
	var recs []TraceRecord
	var qid query.ID = 1
	var jid int64 = 1
	base := time.Duration(0)
	for u := 0; u < 20; u++ {
		t0 := base
		for s := 0; s < 3; s++ { // three sessions per user, separated well
			n := 3 + (u+s)%8
			recs = append(recs, mkTrace(jid, u, field.Kernel((u+s)%3+1), (u*7+s*11)%100, n, t0, 45*time.Second, qid)...)
			qid += query.ID(n)
			jid++
			t0 += time.Duration(n)*45*time.Second + 30*time.Minute
		}
		base += 90 * time.Second
	}
	got := Identify(recs, DefaultIdentifyParams())
	if acc := Accuracy(recs, got); acc < 0.95 {
		t.Fatalf("identification accuracy %.3f below the 'highly accurate' bar", acc)
	}
}

func BenchmarkIdentify10k(b *testing.B) {
	var recs []TraceRecord
	var qid query.ID = 1
	for u := 0; u < 50; u++ {
		for s := 0; s < 4; s++ {
			recs = append(recs, mkTrace(int64(u*10+s), u, field.KernelLag4, s*10, 50,
				time.Duration(s)*time.Hour, 30*time.Second, qid)...)
			qid += 50
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Identify(recs, DefaultIdentifyParams())
	}
}
