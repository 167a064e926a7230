package engine

import (
	"testing"
	"time"

	"jaws/internal/cache"
	"jaws/internal/field"
	"jaws/internal/job"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/workload"
)

// TestEngineInvariantsAcrossSchedulers runs a generated workload under
// every scheduler family and checks the accounting identities that any
// correct execution must satisfy.
func TestEngineInvariantsAcrossSchedulers(t *testing.T) {
	wcfg := workload.Config{
		Seed:           3,
		Space:          testStore(t).Space(),
		Steps:          4,
		Jobs:           25,
		PointsPerQuery: 20,
		MeanJobGap:     50 * time.Millisecond,
		ThinkTime:      5 * time.Millisecond,
		QueryScale:     20,
	}

	type mk struct {
		name     string
		jobAware bool
		build    func(c *cache.Cache) sched.Scheduler
	}
	makers := []mk{
		{"noshare", false, func(*cache.Cache) sched.Scheduler { return sched.NewNoShare() }},
		{"liferaft0", false, func(c *cache.Cache) sched.Scheduler { return sched.NewLifeRaft(testCost, 0, c.Contains) }},
		{"liferaft1", false, func(c *cache.Cache) sched.Scheduler { return sched.NewLifeRaft(testCost, 1, c.Contains) }},
		{"jaws", false, func(c *cache.Cache) sched.Scheduler {
			return sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 4, InitialAlpha: 0.5, Adaptive: true, Resident: c.Contains})
		}},
		{"jaws2", true, func(c *cache.Cache) sched.Scheduler {
			return sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 4, InitialAlpha: 0.5, Adaptive: true, Resident: c.Contains})
		}},
		{"qos", true, func(c *cache.Cache) sched.Scheduler {
			inner := sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 4, Resident: c.Contains})
			sched.NewQoS(inner, testCost, 4, time.Second)
			return inner
		}},
	}

	for _, m := range makers {
		t.Run(m.name, func(t *testing.T) {
			w := workload.Generate(wcfg)
			s := testStore(t)
			c := cache.New(12, cache.NewLRUK(2, 0))
			e, err := New(Config{
				Store: s, Cache: c, Sched: m.build(c), Cost: testCost,
				JobAware: m.jobAware, RunLength: 16,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := e.Run(w.Jobs)
			if err != nil {
				t.Fatal(err)
			}

			// 1. Every query completed exactly once.
			if rep.Completed != w.TotalQueries() {
				t.Fatalf("completed %d of %d queries", rep.Completed, w.TotalQueries())
			}
			// 2. Disk reads equal cache misses: every miss triggers one
			// store read and nothing else touches the disk.
			if rep.DiskStats.Reads != rep.CacheStats.Misses {
				t.Fatalf("reads %d != misses %d", rep.DiskStats.Reads, rep.CacheStats.Misses)
			}
			// 3. Virtual time accounts for at least all disk busy time.
			if rep.Elapsed < rep.DiskStats.BusyTime {
				t.Fatalf("elapsed %v < disk busy %v", rep.Elapsed, rep.DiskStats.BusyTime)
			}
			// 4. Responses are positive and the throughput identity holds.
			if rep.MeanResponse <= 0 || rep.P95Response < rep.P50Response {
				t.Fatalf("response stats inconsistent: %+v", rep)
			}
			wantTP := float64(rep.Completed) / rep.Elapsed.Seconds()
			if diff := rep.ThroughputQPS - wantTP; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("throughput %g != completed/elapsed %g", rep.ThroughputQPS, wantTP)
			}
			// 5. Job-aware runs finish their gating graph (nothing left
			// un-scheduled).
			if m.jobAware && e.graph != nil && !e.graph.Finished() {
				t.Fatal("gating graph not drained")
			}
		})
	}
}

// TestFigure2Scenario reproduces the paper's Fig. 2 example: three jobs
// whose region sequences share R3 and R4 (and R1 between j1 and j3).
// Job-aware scheduling must read the shared regions once where the
// gate-less run reads them repeatedly.
func TestFigure2Scenario(t *testing.T) {
	s := testStore(t)
	// Regions R1..R5 are distinct atoms of step 0; one query per region,
	// as in the figure: j1 = [R1 R2 R3 R4], j2 = [R5 R3 R4], j3 = [R1 R3 R4].
	// The 4-atom-per-axis test grid fits R1..R4 along x; R5 sits on a
	// different y row.
	type coord struct{ x, y uint32 }
	regionAtom := map[int]coord{1: {0, 1}, 2: {1, 1}, 3: {2, 1}, 4: {3, 1}, 5: {0, 2}}
	mk := func(id int64, regions []int, arrival time.Duration) *job.Job {
		j := &job.Job{ID: id, User: int(id), Type: job.Ordered, ThinkTime: time.Millisecond}
		for i, r := range regions {
			c := regionAtom[r]
			j.Queries = append(j.Queries, &query.Query{
				ID: query.ID(id*1000 + int64(i)), JobID: id, Seq: i, Step: 0,
				Points: pointsInAtom(s, c.x, c.y, 1, 50),
				Kernel: field.KernelNone,
			})
		}
		j.Queries[0].Arrival = arrival
		return j
	}
	mkJobs := func() []*job.Job {
		return []*job.Job{
			mk(1, []int{1, 2, 3, 4}, 0),
			mk(2, []int{5, 3, 4}, 20*time.Millisecond),
			mk(3, []int{1, 3, 4}, 40*time.Millisecond),
		}
	}
	run := func(aware bool) *Report {
		st := testStore(t)
		c := cache.New(1, cache.NewLRUK(1, 0)) // single-atom cache: sharing must be simultaneous
		js := sched.NewJAWS(sched.JAWSConfig{Cost: testCost, BatchSize: 4, InitialAlpha: 0, Resident: c.Contains})
		e, err := New(Config{Store: st, Cache: c, Sched: js, Cost: testCost, JobAware: aware})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(mkJobs())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	aware := run(true)
	blind := run(false)
	if aware.Completed != 10 || blind.Completed != 10 {
		t.Fatalf("completions %d/%d", aware.Completed, blind.Completed)
	}
	if aware.GatingAdmitted == 0 {
		t.Fatal("Fig. 2 scenario admitted no gating edges")
	}
	if aware.DiskStats.Reads >= blind.DiskStats.Reads {
		t.Fatalf("job-aware run did not save I/O: %d vs %d reads",
			aware.DiskStats.Reads, blind.DiskStats.Reads)
	}
	// Fig. 2's JAWS completes 33% faster; at this tiny scale require a
	// strict improvement.
	if aware.Elapsed >= blind.Elapsed {
		t.Fatalf("job-aware run not faster: %v vs %v", aware.Elapsed, blind.Elapsed)
	}
}
