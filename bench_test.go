package jaws

// Benchmark harness: one bench per table and figure of the paper's
// evaluation (§VI), plus ablations for the design choices called out in
// DESIGN.md. Each bench replays the experiment at the reduced TestScale so
// `go test -bench=.` stays fast; `cmd/jawsbench` runs the full evaluation
// scale and prints the paper-style tables. Virtual-time results (queries
// per virtual second, cache hit ratio) are attached via b.ReportMetric, so
// the benchmark output doubles as the figure data.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"jaws/internal/experiments"
	"jaws/internal/job"
	"jaws/internal/workload"
)

// benchScale trims the experiment scale further for tight bench loops.
func benchScale() experiments.Scale {
	s := experiments.TestScale()
	s.Jobs = 40
	return s
}

// BenchmarkFig8WorkloadGen regenerates the Fig. 8 job-duration histogram;
// the metric of record is the fraction of jobs in the 1–30 minute bucket
// (the paper's 63 % majority).
func BenchmarkFig8WorkloadGen(b *testing.B) {
	s := benchScale()
	var frac float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8(s)
		frac = float64(r.Hist.Buckets()[1]) / float64(r.Hist.Count())
	}
	b.ReportMetric(frac, "frac-1-30min")
}

// BenchmarkFig9StepSkew regenerates the Fig. 9 access distribution; the
// metric is the share of queries landing on the twelve hottest steps
// (≈70 % in the paper).
func BenchmarkFig9StepSkew(b *testing.B) {
	s := benchScale()
	s.Steps = 31
	var top float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9(s)
		total, counts := 0, append([]int(nil), r.Counts...)
		for _, c := range counts {
			total += c
		}
		for x := 0; x < len(counts); x++ {
			for y := x + 1; y < len(counts); y++ {
				if counts[y] > counts[x] {
					counts[x], counts[y] = counts[y], counts[x]
				}
			}
		}
		sum := 0
		for x := 0; x < 12 && x < len(counts); x++ {
			sum += counts[x]
		}
		top = float64(sum) / float64(total)
	}
	b.ReportMetric(top, "top12-frac")
}

// BenchmarkFig10Schedulers runs the Fig. 10 lineup: one sub-bench per
// algorithm, reporting virtual-time query throughput.
func BenchmarkFig10Schedulers(b *testing.B) {
	s := benchScale()
	for _, alg := range experiments.AllAlgorithms() {
		b.Run(alg.String(), func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				rep, err := experiments.RunAlgorithm(s, alg, s.BatchSize)
				if err != nil {
					b.Fatal(err)
				}
				tp = rep.ThroughputQPS
			}
			b.ReportMetric(tp, "vq/s")
		})
	}
}

// BenchmarkFig11Saturation sweeps workload saturation for JAWS2 (the
// full Fig. 11 grid is in jawsbench), reporting throughput per speed-up.
func BenchmarkFig11Saturation(b *testing.B) {
	s := benchScale()
	s.MeanJobGap *= 16
	for _, su := range []float64{0.5, 2, 8} {
		b.Run(fmt.Sprintf("speedup-%g", su), func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				rep, err := experiments.RunAlgorithmOn(s, SchedJAWS2,
					experiments.FreshJobs(s, su), s.BatchSize)
				if err != nil {
					b.Fatal(err)
				}
				tp = rep.ThroughputQPS
			}
			b.ReportMetric(tp, "vq/s")
		})
	}
}

// BenchmarkFig12BatchSize sweeps JAWS's batch size k, reporting throughput
// and cache hit ratio per k.
func BenchmarkFig12BatchSize(b *testing.B) {
	s := benchScale()
	for _, k := range []int{1, 10, 50} {
		b.Run(fmt.Sprintf("k-%d", k), func(b *testing.B) {
			var tp, hit float64
			for i := 0; i < b.N; i++ {
				rep, err := experiments.RunAlgorithm(s, SchedJAWS2, k)
				if err != nil {
					b.Fatal(err)
				}
				tp = rep.ThroughputQPS
				hit = rep.CacheStats.HitRatio()
			}
			b.ReportMetric(tp, "vq/s")
			b.ReportMetric(hit, "hit-ratio")
		})
	}
}

// BenchmarkTable1Caches compares the replacement policies of Table I under
// JAWS1; the ns/op of these sub-benches corresponds to the table's
// overhead dimension while the reported metrics carry hit ratio and
// virtual seconds per query.
func BenchmarkTable1Caches(b *testing.B) {
	s := benchScale()
	for _, name := range CachePolicyNames() {
		pol, err := ParseCachePolicy(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(strings.ToLower(pol.String()), func(b *testing.B) {
			var hit, spq float64
			for i := 0; i < b.N; i++ {
				rep, err := experiments.RunPolicy(s, pol)
				if err != nil {
					b.Fatal(err)
				}
				hit = rep.CacheStats.HitRatio()
				spq = rep.Elapsed.Seconds() / float64(rep.Completed)
			}
			b.ReportMetric(hit, "hit-ratio")
			b.ReportMetric(spq, "vsec/query")
		})
	}
}

// BenchmarkJobIdentification measures the §IV.A heuristics: wall time to
// label the trace plus the achieved pairwise accuracy.
func BenchmarkJobIdentification(b *testing.B) {
	s := benchScale()
	trace := workload.Generate(workload.Config{Seed: s.Seed, Steps: s.Steps, Jobs: 200})
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		assignment := job.Identify(trace.Records, job.DefaultIdentifyParams())
		acc = job.Accuracy(trace.Records, assignment)
	}
	b.ReportMetric(acc, "accuracy")
}

// BenchmarkAblationGating isolates job-aware gated execution: identical
// trace and scheduler, gating on versus off.
func BenchmarkAblationGating(b *testing.B) {
	s := benchScale()
	for _, aware := range []bool{false, true} {
		name := "gating-off"
		alg := SchedJAWS1
		if aware {
			name = "gating-on"
			alg = SchedJAWS2
		}
		b.Run(name, func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				rep, err := experiments.RunAlgorithm(s, alg, s.BatchSize)
				if err != nil {
					b.Fatal(err)
				}
				tp = rep.ThroughputQPS
			}
			b.ReportMetric(tp, "vq/s")
		})
	}
}

// BenchmarkAblationAdaptiveAlpha compares the §V.A adaptive age bias with
// fixed extremes (the LifeRaft1/LifeRaft2 end points) on the same trace.
func BenchmarkAblationAdaptiveAlpha(b *testing.B) {
	s := benchScale()
	cases := []struct {
		name string
		alg  Scheduler
	}{
		{"alpha-fixed-1", SchedLifeRaft1},
		{"alpha-fixed-0", SchedLifeRaft2},
		{"alpha-adaptive", SchedJAWS2},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				rep, err := experiments.RunAlgorithm(s, c.alg, s.BatchSize)
				if err != nil {
					b.Fatal(err)
				}
				tp = rep.ThroughputQPS
			}
			b.ReportMetric(tp, "vq/s")
		})
	}
}

// BenchmarkEndToEndFacade measures the public API path end to end,
// including kernel computation, the way a library user would drive it.
func BenchmarkEndToEndFacade(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := Open(Config{
			Space:      Space{GridSide: 128, AtomSide: 32},
			Steps:      4,
			Scheduler:  SchedJAWS2,
			CacheAtoms: 16,
			Seed:       int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		w := GenerateWorkload(WorkloadConfig{Seed: int64(i), Steps: 4, Jobs: 10})
		if _, err := sys.Run(w.Jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayCold is the body of the wall-clock benchmark's replay-cold
// workload (benchmark/replay.go): the BENCH_main.json trace at the default
// scale through Open and Run on a fresh system per replay, the trace and
// the system built off the clock. One op is one replay of 6 099 queries;
// `make profile-replay` profiles it.
func BenchmarkReplayCold(b *testing.B) {
	s := experiments.DefaultScale()
	b.ReportAllocs()
	queries := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		jobs := experiments.FreshJobs(s, 1)
		sys, err := Open(s.Node(SchedJAWS2, s.BatchSize))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rep, err := sys.Run(jobs)
		if err != nil {
			b.Fatal(err)
		}
		queries = rep.Completed
	}
	b.ReportMetric(float64(queries), "queries/op")
}

// warmHeld is what BenchmarkReplayWarm's caller holds after its Runs — the
// System and its last Report — kept past the benchmark, so that the heap
// profile the test binary writes on exit (-memprofile, after a GC) shows
// what a warm System holds, by site.
var warmHeld struct {
	sys *System
	rep *Report
}

// BenchmarkReplayWarm is the body of the wall-clock benchmark's
// replay-warm workload (benchmark/replay.go): the derivative-chain trace
// under the tail-policy stack, replayed on one System whose cache holds the
// whole 8-step store. Opening it and the first Run, which fills the cache,
// are set-up; one op is one Run of 6 610 queries that reads nothing, with
// the trace built off the clock. live-B is the heap a caller holding the
// System and its last Report keeps after the Runs — the replay-warm
// live_heap_mb; `make profile-replay` prints it by site.
func BenchmarkReplayWarm(b *testing.B) {
	s := experiments.DefaultScale()
	s.Scenario = "deriv-chain"
	s.Steps = 8
	s.CacheAtoms = 8 * s.Space.AtomsPerStep()
	s.TailPolicy = "gate-aware;cross-step:span=2;adaptive-batch"
	warmHeld.sys, warmHeld.rep = nil, nil
	sys, err := Open(s.Node(SchedJAWS2, s.BatchSize))
	if err != nil {
		b.Fatal(err)
	}
	rep, err := sys.Run(experiments.FreshJobs(s, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		jobs := experiments.FreshJobs(s, 1)
		b.StartTimer()
		if rep, err = sys.Run(jobs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	warmHeld.sys, warmHeld.rep = sys, rep
	b.ReportMetric(float64(m.HeapAlloc), "live-B")
	b.ReportMetric(float64(rep.Completed), "queries/op")
}
