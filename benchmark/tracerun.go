package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"jaws/internal/engine"
	"jaws/internal/experiments"
	"jaws/internal/jobgraph"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/store"
)

// The traced run gives the per-layer metrics. It first measures the
// workload once more with tracing off (a shorter copy of the end-to-end
// run: the reference), then repeats it against the in-process assembly with
// a timing decorator on every seam, then replays the recorded call streams
// against the layers that have no seam. trace.qps_ratio, traced over
// reference throughput, is what tracing and in-process assembly cost;
// below unreliableRatio the workload's per-layer numbers are flagged.
const (
	// Shares of the measured seconds, serve workloads.
	refOpenShare   = 0.3
	refClosedShare = 0.2
	obsOnShare     = 0.15
	tracedShare    = 0.25
	// Replay workloads: reference replays through the facade, traced ones
	// through the assembly.
	refReplayShare    = 0.4
	tracedReplayShare = 0.4
	// isolateShare is the budget of each isolated replay.
	isolateShare    = 0.04
	unreliableRatio = 0.8
)

// spanPath is where the traced run's spans go.
func spanPath(o options, workload string) string {
	if o.traceOut != "" {
		return o.traceOut
	}
	return filepath.Join(o.root, ".bench_build", "spans-"+workload+".jsonl")
}

// finishTrace books the harness's own metrics, writes the spans and closes
// the outcome.
func finishTrace(out *outcome, o options, rec *recorder, tracedQPS, refQPS float64) error {
	m := out.Metrics
	m["fail_frac"] = ratio(float64(out.Failed), float64(out.Attempted))
	m["trace.spans"] = float64(rec.count())
	m["trace.qps_ratio"] = ratio(tracedQPS, refQPS)
	out.note("reference %.0f queries/s, traced %.0f queries/s", refQPS, tracedQPS)
	if m["trace.qps_ratio"] < unreliableRatio {
		out.note("UNRELIABLE: traced throughput is %.2f of the untraced; read this workload's per-layer numbers as upper bounds", m["trace.qps_ratio"])
	}
	for _, lt := range rec.selfTimes() {
		out.note("%v", lt)
	}
	path := spanPath(o, out.Workload)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := rec.writeJSONL(path); err != nil {
		return err
	}
	out.note("%d spans written to %s", rec.count(), path)
	out.Correct = out.Failed == 0
	return nil
}

// bookProbes turns the engine-side decorators' totals into metrics. busy is
// the wall time the engine was occupied, the base of the busy fractions.
func bookProbes(m metricSet, p *probes, busy time.Duration) {
	m["engine.decisions"] = float64(p.decisions)
	m["engine.atoms_per_decision"] = ratio(float64(p.batchAtoms), float64(p.decisions))
	lookups := float64(p.hitEvents) + float64(len(p.misses))
	m["engine.subq_per_atom_read"] = ratio(float64(p.batchSubs), lookups)

	calls := float64(p.decisions + p.emptyDecisions)
	m["sched.enqueue_ns"] = ratio(float64(p.enqueueTime), float64(p.enqueues))
	m["sched.decide_us"] = ratio(float64(p.decideTime)/float64(time.Microsecond), calls)
	m["sched.busy_frac"] = ratio(float64(p.enqueueTime+p.decideTime), float64(busy))
	if p.countAllocs {
		m["sched.decide_allocs"] = ratio(float64(p.decideAllocs), calls)
	}

	m["cache.hit_ratio"] = ratio(float64(p.hitEvents), lookups)
	m["cache.evictions"] = float64(p.evictEvents)
	m["cache.hit_ns"] = ratio(float64(p.hitTime), float64(p.hits))
	m["cache.miss_ns"] = ratio(float64(p.missTime), float64(p.inserts))

	m["store.reads"] = float64(p.reads)
	m["store.busy_frac"] = ratio(float64(p.readTime), float64(busy))
	m["store.seq_read_frac"] = ratio(float64(p.seqReads), float64(p.reads))
}

// bookQueryStreams replays the queries through query.PreProcess and
// geom.Space.Footprint and returns PreProcess's cost for the attribution.
func bookQueryStreams(m metricSet, qs []*query.Query, a *assembly, budget time.Duration) isolated {
	pre, subq := isolatePreProcess(qs, a.st.Space(), budget)
	m["query.preprocess_us"], m["query.preprocess_allocs"], m["query.subq_per_query"] = pre.us(), pre.allocs, subq
	m["query.footprint_us"] = isolateFootprint(qs, a.st.Space(), budget).us()
	return pre
}

// bookStoreStreams replays the miss stream through the store and the field
// and the index stream through the B+-tree walk.
func bookStoreStreams(m metricSet, cfg store.Config, p *probes, qs []*query.Query, a *assembly, budget time.Duration) error {
	read, sample, err := isolateRead(cfg, p.misses, budget)
	if err != nil {
		return err
	}
	if read.ops > 0 {
		m["store.read_us"], m["field.sample_us"] = read.us(), sample.us()
	}
	m["store.index_ns"] = isolateIndex(a.st, indexStream(p.misses, qs, cfg.Space), budget).ns()
	return nil
}

// queryID reads the query_id a response body starts with, so the client's
// round-trip span can share its ID with the server's and the engine's.
func queryID(body []byte) int64 {
	const prefix = `{"query_id":`
	if !bytes.HasPrefix(body, []byte(prefix)) {
		return 0
	}
	rest := body[len(prefix):]
	end := bytes.IndexByte(rest, ',')
	if end < 0 {
		return 0
	}
	id, _ := strconv.ParseInt(string(rest[:end]), 10, 64) // 0 for a malformed prefix
	return id
}

// prefill makes the given steps' atoms resident before the session starts
// (up to the cache's capacity), then clears the cache and disk counters, so
// the traced phase starts in the workload's steady state with no warm-up
// traffic to subtract.
func prefill(a *assembly, steps []int) error {
	for _, step := range steps {
		var err error
		a.st.ScanStep(step, func(id store.AtomID) bool {
			if a.cache.Len() >= a.cache.Capacity() {
				return false
			}
			atom, _, rerr := a.st.Read(id)
			if rerr != nil {
				err = rerr
				return false
			}
			a.cache.Put(id, atom)
			return true
		})
		if err != nil {
			return err
		}
	}
	a.clearCounters()
	return nil
}

// clearCounters zeroes the cache's, the disk's and the probes' counters; the
// engine must be idle.
func (a *assembly) clearCounters() {
	a.cache.ResetStats()
	a.st.ResetDiskStats()
	*a.p = probes{rec: a.p.rec, countAllocs: a.p.countAllocs, spanParent: a.p.spanParent}
}

// prefillSteps is what the traced run makes resident for a serve workload:
// its cover steps, or for the cold workload as many whole steps as fit,
// which is the half-resident steady state its traffic converges to.
func prefillSteps(s serveSpec) []int {
	if len(s.coverSteps) > 0 {
		return s.coverSteps
	}
	steps := make([]int, daemonSteps)
	for i := range steps {
		steps[i] = i
	}
	return steps
}

// traceServe measures one serve workload layer by layer.
func traceServe(s serveSpec, o options) (*outcome, error) {
	out := &outcome{Workload: s.name, Seed: o.seed, Metrics: metricSet{}}
	var err error
	if o.v, err = newVerifier(); err != nil {
		return nil, err
	}
	pl, refQPS, err := serveReference(s, o, out)
	if err != nil {
		return nil, err
	}
	tr, err := serveTraced(s, o, pl, out)
	if err != nil {
		return nil, err
	}
	if err := tr.isolate(o, pl, out.Metrics); err != nil {
		return nil, err
	}
	if err := finishTrace(out, o, tr.rec, tr.qps, refQPS); err != nil {
		return nil, err
	}
	return out, nil
}

// serveReference measures the workload against the real daemon with harness
// tracing off, books the figures only that run can give (deadline misses,
// the latency tail, the generator's lateness, and on serve-hot the cost of
// the daemon's observability features) and returns the plan and the
// saturation throughput.
func serveReference(s serveSpec, o options, out *outcome) (*plan, float64, error) {
	m := out.Metrics
	t0 := time.Now()
	if _, err := buildPlan(s, o.seed, o.scale); err != nil {
		return nil, 0, err
	}
	m["workload.generate_ms"] = float64(time.Since(t0)) / float64(time.Millisecond)
	ref, err := setUp(s, o)
	if err != nil {
		return nil, 0, err
	}
	refM := metricSet{}
	open := pace(ref, s, o.dur(refOpenShare), out)
	closed, err := saturate(ref, o.dur(refClosedShare), refM)
	if err != nil {
		ref.abandon()
		return nil, 0, err
	}
	if err := settle(ref, o, out, open, closed); err != nil {
		return nil, 0, err
	}
	m["qps"], m["cpu_ms_per_query"] = refM["qps"], refM["cpu_ms_per_query"]
	m["slo_miss_frac"] = ratio(float64(open.sloMiss), float64(open.sent))
	m["lat_p50_ms"] = percentile(open.lat, 50)
	m["lat_p90_ms"] = percentile(open.lat, 90)
	m["lat_p99_ms"] = percentile(open.lat, 99)
	if n := len(open.lat); n < 1000 {
		out.note("reference open phase answered %d requests: fewer than 10 samples lie beyond lat_p99_ms", n)
	}
	m["gen.late_p99_ms"] = percentile(open.late, 99)
	m["gen.cpu_frac"] = ratio(open.genCPU.Seconds(), open.wall.Seconds())
	out.note("reference: open %d requests at %.0f/s, closed %.4f ms CPU and %.1f allocations per query",
		open.sent, s.openRate, refM["cpu_ms_per_query"], refM["allocs_per_query"])
	if s.name == "serve-hot" {
		if err := obsOn(s, o, out, refM); err != nil {
			return nil, 0, err
		}
	}
	return ref.pl, refM["qps"], nil
}

// obsOn repeats the closed phase against a daemon with its observability
// features on (decision trace, flight recorder, request log, SLO tracker)
// and books their cost relative to the reference daemon.
func obsOn(s serveSpec, o options, out *outcome, refM metricSet) error {
	scratch := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratch, "obs-on-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r, err := setUp(s, o,
		"-trace-out", filepath.Join(dir, "trace.jsonl"), "-flight",
		"-log-out", filepath.Join(dir, "requests.jsonl"), "-slo-target", "5s")
	if err != nil {
		return err
	}
	onM := metricSet{}
	closed, err := saturate(r, o.dur(obsOnShare), onM)
	if err != nil {
		r.abandon()
		return err
	}
	if err := settle(r, o, out, closed); err != nil {
		return err
	}
	out.Metrics["obs.on_qps_ratio"] = ratio(onM["qps"], refM["qps"])
	out.Metrics["obs.on_allocs_delta"] = onM["allocs_per_query"] - refM["allocs_per_query"]
	return nil
}

// tracedServe is what the traced phase of a serve workload leaves behind
// for the isolated replays.
type tracedServe struct {
	rec     *recorder
	p       *probes
	a       *assembly
	queries []*query.Query // the engine's call stream
	sampled [][]byte       // response bodies kept for the check and the encoder replay
	sent    int64
	qps     float64
	busy    time.Duration // time the engine was occupied
}

// serveTraced runs the closed phase against the in-process assembly with a
// decorator on every seam and books what the decorators and the server's own
// request spans measured.
func serveTraced(s serveSpec, o options, pl *plan, out *outcome) (*tracedServe, error) {
	m := out.Metrics
	tr := &tracedServe{rec: newRecorder()}
	tr.p = &probes{rec: tr.rec}
	var err error
	if tr.a, err = assemble(daemonConfig(), tr.p); err != nil {
		return nil, err
	}
	if err := prefill(tr.a, prefillSteps(s)); err != nil {
		return nil, err
	}
	sv, err := serveInproc(tr.a, tr.rec)
	if err != nil {
		return nil, err
	}
	conns := make([]*conn, maxConns())
	for i := range conns {
		conns[i] = newConn(sv.base)
		conns[i].rt = func(body []byte, start, end time.Time) {
			tr.rec.add("http.roundtrip", queryID(body), "", start, end)
		}
	}
	ph := runClosed(conns, pl, o.dur(tracedShare))
	for _, c := range conns {
		c.close()
	}
	stats, err := sv.stop()
	if err != nil {
		return nil, err
	}
	answered := ph.sent - ph.failed
	out.Attempted += ph.sent
	if ph.failed > 0 {
		out.fail(ph.failed, "traced phase: %d of %d requests failed: %v", ph.failed, ph.sent, ph.err)
	}
	if stats.Served != answered {
		out.fail(1, "traced server served %d, the harness saw %d answered", stats.Served, answered)
	}
	for _, sm := range ph.samples {
		if err := o.v.check(pl.bodies[sm.plan], sm.body); err != nil {
			out.fail(1, "traced phase recomputation: %v", err)
		}
		tr.sampled = append(tr.sampled, sm.body)
	}
	tr.queries, tr.sent = sv.tb.recorded(), ph.sent
	tr.qps = ph.rate()

	// The server's own request spans, as children of the round trips.
	for _, rs := range sv.agg.Spans() {
		id, at := rs.Query, rs.Start
		tr.rec.add("server.request", id, "http.roundtrip", at, at.Add(rs.Wall))
		for _, part := range []struct {
			name string
			d    time.Duration
		}{
			{"server.validate", rs.Validate}, {"server.queued", rs.Queued}, {"server.dispatch", rs.Dispatch},
			{"server.execute", rs.Execute}, {"server.write", rs.Write},
		} {
			tr.rec.add(part.name, id, "server.request", at, at.Add(part.d))
			at = at.Add(part.d)
		}
	}
	for _, row := range sv.agg.Summarize(0).Attribution() {
		m["server."+row.Name+"_us"] = float64(row.MeanPerQuery) / float64(time.Microsecond)
	}
	times := map[string]layerTime{}
	for _, lt := range tr.rec.selfTimes() {
		times[lt.Name] = lt
	}
	mean := func(name string) float64 {
		lt := times[name]
		return ratio(float64(lt.Total)/float64(time.Microsecond), float64(lt.Count))
	}
	m["server.roundtrip_us"] = mean("http.roundtrip")
	m["engine.session_us"] = mean("engine.submit") + mean("engine.session")
	m["server.self_us"] = m["server.roundtrip_us"] - m["engine.session_us"]
	var reqBytes int64
	for i := int64(0); i < ph.sent; i++ {
		reqBytes += int64(len(pl.bodies[int(i)%len(pl.bodies)]))
	}
	m["server.req_bytes"] = ratio(float64(reqBytes), float64(ph.sent))
	m["server.resp_bytes"] = ratio(float64(ph.respB), float64(answered))
	m["server.shed"] = float64(stats.Shed)
	m["server.timeouts"] = float64(stats.Timeouts)
	m["server.errors"] = float64(stats.Errors)

	tr.busy = tr.rec.union("engine.submit", "engine.session")
	bookProbes(m, tr.p, tr.busy)
	m["cache.policy_us_per_query"] = ratio(float64(tr.a.cache.Stats().PolicyTime)/float64(time.Microsecond), float64(answered))
	return tr, nil
}

// isolate replays the traced phase's call streams against the layers that
// have no seam and books how much of the engine's time the measured
// children explain.
func (tr *tracedServe) isolate(o options, pl *plan, m metricSet) error {
	budget := o.dur(isolateShare)
	pre := bookQueryStreams(m, tr.queries, tr.a, budget)
	storeCfg := store.Config{Space: tr.a.st.Space(), Steps: daemonSteps, Seed: daemonSeed}
	if err := bookStoreStreams(m, storeCfg, tr.p, tr.queries, tr.a, budget); err != nil {
		return err
	}
	interp, err := isolateInterpolate(tr.queries, o.v, budget)
	if err != nil {
		return err
	}
	var points int64
	for _, q := range tr.queries {
		points += int64(len(q.Points) * q.ChainLen())
	}
	m["field.interp_ns"], m["field.points"] = interp.ns(), float64(points)

	bodies := pl.bodies
	if int64(len(bodies)) > tr.sent {
		bodies = bodies[:tr.sent]
	}
	dec, enc, err := isolateCodec(bodies, tr.sampled, budget)
	if err != nil {
		return err
	}
	m["server.decode_us"], m["server.decode_allocs"] = dec.us(), dec.allocs
	m["server.encode_us"], m["server.encode_allocs"] = enc.us(), enc.allocs

	// Interpolation runs on the compute pool, GOMAXPROCS wide.
	p := tr.p
	explained := p.enqueueTime + p.decideTime + p.readTime + p.hitTime + p.missTime +
		pre.total(int64(len(tr.queries))) + interp.total(points)/time.Duration(runtime.GOMAXPROCS(0))
	m["engine.unattributed_frac"] = 1 - ratio(float64(explained), float64(tr.busy))
	return nil
}

// traceReplay measures one replay workload layer by layer.
func traceReplay(spec replaySpec, o options) (*outcome, error) {
	out := &outcome{Workload: spec.name, Seed: o.seed, Metrics: metricSet{}}
	scale := shrink(spec.scale(), o.scale)

	// Reference: the facade, harness tracing off.
	ro := o
	ro.seconds = o.seconds * refReplayShare
	ref, err := runReplay(spec, ro)
	if err != nil {
		return nil, err
	}
	out.Attempted, out.Failed = ref.Attempted, ref.Failed
	out.Notes = append(out.Notes, ref.Notes...)
	for _, d := range timed {
		out.Metrics[d.Name] = ref.Metrics[d.Name]
	}

	tr, err := replayTraced(spec, o, scale, out)
	if err != nil {
		return nil, err
	}
	if err := tr.isolate(o, scale, out); err != nil {
		return nil, err
	}
	if err := finishTrace(out, o, tr.rec, tr.qps, ref.Metrics["qps"]); err != nil {
		return nil, err
	}
	return out, nil
}

// tracedReplay is what the traced replays leave behind for the isolated
// ones.
type tracedReplay struct {
	rec     *recorder
	p       *probes
	a       *assembly
	replays int
	wall    time.Duration // summed Run calls
	qps     float64
	// stream and report are the last traced replay's jobgraph call stream
	// and engine report.
	stream *graphStream
	report *engine.Report
}

// replayTraced replays the trace through the assembly with a decorator on
// every seam and books what the decorators measured.
func replayTraced(spec replaySpec, o options, scale experiments.Scale, out *outcome) (*tracedReplay, error) {
	m := out.Metrics
	tr := &tracedReplay{rec: newRecorder()}
	tr.p = &probes{rec: tr.rec, countAllocs: true, spanParent: "engine.run"}
	open := func() (err error) {
		if tr.a, err = assemble(facadeConfig(scale), tr.p); err == nil {
			tr.a.keepResults = true
		}
		return err
	}
	if err := open(); err != nil {
		return nil, err
	}
	if spec.warm {
		// The cache-filling replay, as in the end-to-end run.
		if _, err := tr.a.run(freshJobs(scale, o.seed), nil); err != nil {
			return nil, err
		}
		tr.a.clearCounters()
		tr.rec.reset()
	}
	var genTime, policy time.Duration
	queries := 0
	for budget := o.dur(tracedReplayShare); tr.replays == 0 || tr.wall < budget; tr.replays++ {
		t0 := time.Now()
		jobs := freshJobs(scale, o.seed)
		genTime += time.Since(t0)
		if !spec.warm && tr.replays > 0 {
			// A cold replay opens a fresh store and cache, as the facade
			// workload does; the probes keep accumulating.
			if err := open(); err != nil {
				return nil, err
			}
		}
		g := newGraphStream(jobs, scale.Space)
		tr.p.spanID = int64(tr.replays)
		t1 := time.Now()
		rep, err := tr.a.run(jobs, func(now time.Duration, _ []sched.Batch) {
			g.decisions = append(g.decisions, now)
		})
		t2 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("traced replay %d: %w", tr.replays, err)
		}
		tr.rec.add("engine.run", int64(tr.replays), "", t1, t2)
		for _, r := range rep.Results {
			g.done = append(g.done, doneEvent{ref: jobgraph.Ref{Job: r.Query.JobID, Seq: r.Query.Seq}, at: r.Completed})
		}
		n := countQueries(jobs)
		out.Attempted += int64(n)
		if rep.Completed != n {
			out.fail(int64(n-rep.Completed), "traced replay %d completed %d of %d queries", tr.replays, rep.Completed, n)
		}
		if !spec.warm {
			policy += tr.a.cache.Stats().PolicyTime // a fresh cache per cold replay
		}
		tr.wall += t2.Sub(t1)
		queries += n
		tr.stream, tr.report = g, rep
	}
	if spec.warm {
		policy = tr.a.cache.Stats().PolicyTime // one cache, cleared after the warming replay
	}
	tr.qps = ratio(float64(queries), tr.wall.Seconds())
	m["workload.generate_ms"] = ratio(float64(genTime)/float64(time.Millisecond), float64(tr.replays))
	m["engine.run_ms"] = ratio(float64(tr.wall)/float64(time.Millisecond), float64(tr.replays))
	m["cache.policy_us_per_query"] = ratio(float64(policy)/float64(time.Microsecond), float64(queries))
	bookProbes(m, tr.p, tr.wall)
	return tr, nil
}

// isolate replays the trace's call streams against the layers that have no
// seam, checks the rebuilt jobgraph stream against the live run, and books
// how much of the Run calls' time the measured children explain.
func (tr *tracedReplay) isolate(o options, scale experiments.Scale, out *outcome) error {
	m := out.Metrics
	budget := o.dur(isolateShare)
	var qs []*query.Query
	for _, j := range freshJobs(scale, o.seed) {
		qs = append(qs, j.Queries...)
	}
	pre := bookQueryStreams(m, qs, tr.a, budget)
	storeCfg := store.Config{Space: scale.Space, Steps: scale.Steps, SampleSide: scale.SampleSide, Seed: scale.Seed}
	if err := bookStoreStreams(m, storeCfg, tr.p, qs, tr.a, budget); err != nil {
		return err
	}
	gr := tr.stream.replay()
	m["jobgraph.admit_us"], m["jobgraph.admit_allocs"] = gr.admit.us(), gr.admit.allocs
	m["jobgraph.edges_admitted"], m["jobgraph.edges_rejected"] = float64(gr.admitted), float64(gr.rejected)
	if gr.skipped > 0 || gr.admitted != tr.report.GatingAdmitted || gr.rejected != tr.report.GatingRejected {
		out.fail(1, "isolated jobgraph replay diverged from the live run: %d completions skipped, edges %d/%d against the report's %d/%d",
			gr.skipped, gr.admitted, gr.rejected, tr.report.GatingAdmitted, tr.report.GatingRejected)
	}
	// Every traced replay ran the same trace, so the isolated costs of one
	// trace count once per replay.
	p := tr.p
	perTrace := pre.total(int64(len(qs))) + gr.admit.total(int64(len(tr.stream.ordered)))
	explained := p.enqueueTime + p.decideTime + p.readTime + p.hitTime + p.missTime + perTrace*time.Duration(tr.replays)
	m["engine.unattributed_frac"] = 1 - ratio(float64(explained), float64(tr.wall))
	return nil
}
