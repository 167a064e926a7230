// Command jawsreport reconstructs query lifecycles from a JSONL trace
// (written by jaws -trace-out, jawsbench -trace-out, or jawsd
// -trace-out) and reports where response time went: percentiles, the
// per-phase attribution table, and the starvation tail — the worst-k
// queries with their phase breakdowns.
//
// Traces written by jawsd additionally carry one wall-clock request span
// ("reqspan") per served HTTP request. jawsreport stitches each request
// span to its engine span through the propagated request ID (the
// X-Jaws-Request-Id the client saw), reporting both clocks side by side:
// where the wall time went around the engine (validate/queued/dispatch/
// execute/write) and where the virtual time went inside it. -req looks a
// single request ID up and prints its full stitched record.
//
// Traces recorded with the decision flight recorder (jawsd -flight, or
// jawsbench, which always records) additionally carry one
// "decision_record" event per scheduling round. jawsreport joins them
// with the engine spans into wait-cause attribution: -why reconstructs
// one query's complete wait chain — every decision round it was
// eligible but passed over, attributed to losing the utility race (to
// whom, by what margin), being aged in over, the batch bound, or a
// gating edge before dispatch — and the main report gains a per-cause
// tail breakdown plus the dominant cause of each starvation-tail query.
//
// The same pass feeds the event-stream sections, each printed only when
// its events exist: the event mix, the decisions per scheduler, the cache
// hit ratio over virtual time, the adaptive α trajectory, gating waits and
// the disk-read profile. They are aggregated in bounded memory; only the
// spans and decision records are held (memory O(queries)).
//
// It also audits the trace itself (obs.TraceAudit): every span — virtual
// and wall — is checked against the attribution invariant (phase
// components must sum exactly to the total), and the file against its
// footer, so a trace cut short or missing a line is never mistaken for a
// complete one. A failed audit (conservation violations, a missing
// footer, sink drops, or an event count that differs from the footer's)
// exits with status 2 so CI jobs catch corrupt traces.
//
// Usage:
//
//	jaws -sched jaws2 -jobs 200 -trace-out run.jsonl
//	jawsreport run.jsonl
//	jawsreport -k 20 < run.jsonl
//	jawsreport -req r8b6f3a2c91d04e75 service.jsonl
//	jawsreport -why r8b6f3a2c91d04e75 service.jsonl
//	jawsreport -why 42 run.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"jaws/internal/obs"
	"jaws/internal/textplot"
)

// errIntegrity marks a trace that failed the integrity audit; main
// translates it into exit status 2 (the report is still fully printed).
var errIntegrity = errors.New("trace integrity audit failed")

func main() {
	worstK := flag.Int("k", 10, "size of the starvation tail (worst-k queries)")
	reqID := flag.String("req", "", "look one request ID up and print its stitched record")
	why := flag.String("why", "", "reconstruct one query's wait chain from the decision records (query ID or request ID)")
	flag.Parse()

	var in io.Reader = os.Stdin
	name := "<stdin>"
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		in = f
		name = flag.Arg(0)
	}
	err := run(in, name, os.Stdout, *worstK, *reqID, *why)
	if errors.Is(err, errIntegrity) {
		fmt.Fprintf(os.Stderr, "jawsreport: %v\n", err)
		os.Exit(2)
	}
	if err != nil {
		fatalf("%v", err)
	}
}

// run streams the trace and writes the lifecycle report. Split out from
// main so tests can drive it against golden files. When reqID (or why)
// is non-empty only that request's stitched record (or that query's
// wait chain) is printed.
func run(in io.Reader, name string, out io.Writer, worstK int, reqID, why string) error {
	var (
		spans    []obs.Span
		reqSpans []obs.ReqSpan
		decRecs  []obs.DecisionRecord
		audit    obs.TraceAudit
		stream   = newAggregator()
	)
	err := obs.ScanTrace(in, func(ev *obs.Event) error {
		audit.Add(ev)
		switch ev.Kind {
		case obs.KindFooter:
			return nil
		case obs.KindSpan:
			spans = append(spans, *ev.Span)
		case obs.KindReqSpan:
			reqSpans = append(reqSpans, *ev.Req)
		case obs.KindDecisionRecord:
			decRecs = append(decRecs, *ev.Flight)
		}
		stream.add(ev)
		return nil
	})
	if err != nil {
		return err
	}

	// Index engine spans by request ID so each request span stitches to
	// the virtual-clock side of the same request.
	byReq := make(map[string]*obs.Span)
	for i := range spans {
		if r := spans[i].Req; r != "" {
			byReq[r] = &spans[i]
		}
	}

	if reqID != "" {
		for i := range reqSpans {
			if reqSpans[i].ID == reqID {
				printStitched(out, &reqSpans[i], byReq[reqID])
				return nil
			}
		}
		return fmt.Errorf("%s: no request span with ID %s", name, reqID)
	}

	if why != "" {
		sp, err := resolveWhy(why, spans, byReq)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if len(decRecs) == 0 {
			return fmt.Errorf("%s: no decision records (rerun the trace with the flight recorder on, e.g. jawsd -flight)", name)
		}
		printWhy(out, obs.NewDecisionIndex(decRecs).Chain(*sp))
		return nil
	}

	if len(spans) == 0 {
		return fmt.Errorf("%s: no span events (was the trace written with lifecycle spans enabled?)", name)
	}

	sum := obs.SummarizeSpans(spans, worstK)
	fmt.Fprintf(out, "trace: %s (%d spans, %d request spans, %d other events)\n",
		name, len(spans), len(reqSpans), audit.Events-int64(len(spans)+len(reqSpans)+len(decRecs)))

	fmt.Fprintln(out, "\n== response time ==")
	fmt.Fprintf(out, "queries: %d (%d gate-blocked)\n", sum.Count, sum.Blocked)
	printDist(out, sum.Dist)

	fmt.Fprintln(out, "\n== attribution ==")
	tb := &textplot.Table{Header: []string{"phase", "total", "share", "mean/query"}}
	for _, row := range sum.Attribution() {
		tb.AddRow(row.Name, fd(row.Total), fmt.Sprintf("%.1f%%", row.Share*100), fd(row.MeanPerQuery))
	}
	fmt.Fprint(out, tb.String())

	if len(sum.WorstK) > 0 {
		fmt.Fprintf(out, "\n== starvation tail (worst %d) ==\n", len(sum.WorstK))
		wt := &textplot.Table{Header: []string{"query", "job", "total", "gated", "queued", "overhead", "disk", "compute", "dec", "hit/miss"}}
		for i := range sum.WorstK {
			sp := &sum.WorstK[i]
			wt.AddRow(fmt.Sprint(sp.Query), fmt.Sprint(sp.Job), fd(sp.Total()),
				fd(sp.Gated), fd(sp.Queued), fd(sp.Overhead), fd(sp.Disk), fd(sp.Compute),
				fmt.Sprint(sp.Decisions), fmt.Sprintf("%d/%d", sp.Hits, sp.Misses))
		}
		fmt.Fprint(out, wt.String())
	}

	if len(decRecs) > 0 {
		ix := obs.NewDecisionIndex(decRecs)
		fmt.Fprintf(out, "\n== wait causes (%d decision records) ==\n", len(decRecs))
		cb := &textplot.Table{Header: []string{"cause", "total", "mean/query", "p50", "p95", "p99"}}
		for _, ct := range obs.CauseBreakdown(spans, ix) {
			cb.AddRow(ct.Cause, fms(ct.TotalMS), fms(ct.MeanMS), fms(ct.P50MS), fms(ct.P95MS), fms(ct.P99MS))
		}
		fmt.Fprint(out, cb.String())

		if len(sum.WorstK) > 0 {
			fmt.Fprintf(out, "\n== starvation tail by dominant wait cause ==\n")
			dt := &textplot.Table{Header: []string{"query", "wait", "dominant cause", "share", "passed over", "detail"}}
			for i := range sum.WorstK {
				c := ix.Chain(sum.WorstK[i])
				cause, d := c.DominantCause()
				wait := c.Span.Gated + c.Span.Queued
				share := "-"
				if wait > 0 {
					share = fmt.Sprintf("%.0f%%", float64(d)/float64(wait)*100)
				}
				dt.AddRow(fmt.Sprint(c.Query), fd(wait), string(cause), share,
					fmt.Sprint(c.PassedOver()), dominantDetail(c, cause))
			}
			fmt.Fprint(out, dt.String())
			fmt.Fprintln(out, "(jawsreport -why <query|request-id> reconstructs a full wait chain)")
		}
	}

	if len(reqSpans) > 0 {
		rsum := obs.SummarizeReqSpans(reqSpans, worstK)
		fmt.Fprintln(out, "\n== requests (wall clock) ==")
		fmt.Fprintf(out, "requests: %d (%d ok)\n", rsum.Count, rsum.OK)
		printDist(out, rsum.Dist)

		fmt.Fprintln(out, "\n== request attribution ==")
		rb := &textplot.Table{Header: []string{"phase", "total", "share", "mean/request"}}
		for _, row := range rsum.Attribution() {
			rb.AddRow(row.Name, fd(row.Total), fmt.Sprintf("%.1f%%", row.Share*100), fd(row.MeanPerQuery))
		}
		fmt.Fprint(out, rb.String())

		// The worst requests, with both clocks side by side: the wall
		// phases around the engine and the virtual response time inside
		// it (when the engine span stitched).
		stitchedCount := 0
		for i := range reqSpans {
			if byReq[reqSpans[i].ID] != nil {
				stitchedCount++
			}
		}
		fmt.Fprintf(out, "\n== request tail (worst %d, %d/%d stitched to engine spans) ==\n",
			len(rsum.WorstK), stitchedCount, len(reqSpans))
		st := &textplot.Table{Header: []string{"request", "query", "status", "qdepth", "wall", "validate", "queued", "dispatch", "execute", "write", "virtual"}}
		for i := range rsum.WorstK {
			rs := &rsum.WorstK[i]
			virt := "-"
			if es := byReq[rs.ID]; es != nil {
				virt = fd(es.Total())
			}
			st.AddRow(rs.ID, fmt.Sprint(rs.Query), fmt.Sprint(rs.Status), fmt.Sprint(rs.QueueDepth),
				fd(rs.Wall), fd(rs.Validate), fd(rs.Queued), fd(rs.Dispatch), fd(rs.Execute), fd(rs.Write), virt)
		}
		fmt.Fprint(out, st.String())
	}

	stream.print(out, audit.Events)

	// A failed audit is an exit-status failure, not just a WARNING line:
	// conservation violations or a dropped/truncated trace mean every
	// number above may be wrong, and CI must not greenlight it.
	fmt.Fprintln(out, "\n== trace integrity ==")
	if err := audit.Report(out); err != nil {
		return fmt.Errorf("%w: %v", errIntegrity, err)
	}
	return nil
}

// resolveWhy maps the -why argument — a query ID or a request ID — to
// the engine span it names.
func resolveWhy(why string, spans []obs.Span, byReq map[string]*obs.Span) (*obs.Span, error) {
	if qid, err := strconv.ParseInt(why, 10, 64); err == nil {
		for i := range spans {
			if spans[i].Query == qid {
				return &spans[i], nil
			}
		}
		return nil, fmt.Errorf("no engine span for query %d", qid)
	}
	if sp := byReq[why]; sp != nil {
		return sp, nil
	}
	return nil, fmt.Errorf("no engine span carries request ID %s", why)
}

// whyRoundCap bounds the per-round table of a wait chain; chains longer
// than this elide the middle (the summary still covers every round).
const whyRoundCap = 40

// printWhy renders one query's reconstructed wait chain.
func printWhy(out io.Writer, c *obs.WaitChain) {
	sp := &c.Span
	fmt.Fprintf(out, "why query %d", c.Query)
	if sp.Req != "" {
		fmt.Fprintf(out, " (request %s)", sp.Req)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "  engine %d   arrival %s   done %s   total %s\n",
		c.Engine, fd(sp.Arrival), fd(sp.Done), fd(sp.Total()))
	fmt.Fprintf(out, "  phases  gated %s + queued %s + overhead %s + disk %s + compute %s\n",
		fd(sp.Gated), fd(sp.Queued), fd(sp.Overhead), fd(sp.Disk), fd(sp.Compute))
	if c.Note != "" {
		fmt.Fprintf(out, "  note: %s\n", c.Note)
		return
	}

	if sp.Gated > 0 {
		fmt.Fprintf(out, "\n  gated-behind: %s held before dispatch\n", fd(sp.Gated))
		if len(c.GatedEdges) == 0 {
			fmt.Fprintln(out, "    (no gating edge recorded: admission latency, or the hold predates the recorder window)")
		}
		for _, e := range c.GatedEdges {
			fmt.Fprintf(out, "    q(%d,%d) waiting on q(%d,%d)", e.Job, e.Seq, e.OnJob, e.OnSeq)
			if e.OnQuery != 0 {
				fmt.Fprintf(out, " = query %d", e.OnQuery)
			}
			fmt.Fprintln(out)
		}
	}

	served := len(c.Rounds) - c.PassedOver()
	fmt.Fprintf(out, "\n  decision rounds in [dispatch, done): %d (%d serving, %d passed over)\n",
		len(c.Rounds), served, c.PassedOver())
	rt := &textplot.Table{Header: []string{"round", "t", "charged", "outcome", "detail"}}
	elided := 0
	for i := range c.Rounds {
		if len(c.Rounds) > whyRoundCap && i >= whyRoundCap/2 && i < len(c.Rounds)-whyRoundCap/2 {
			elided++
			continue
		}
		r := &c.Rounds[i]
		outcome, detail := "SERVED", "sub-query in this round's batch"
		if !r.Serving {
			outcome, detail = string(r.Cause), r.Detail()
		}
		rt.AddRow(fmt.Sprint(r.Seq), fd(r.T), fd(r.Dur), outcome, detail)
	}
	fmt.Fprint(out, rt.String())
	if elided > 0 {
		fmt.Fprintf(out, "  (%d middle rounds elided)\n", elided)
	}

	fmt.Fprintln(out, "\n  wait by cause:")
	for _, cause := range obs.AllWaitCauses {
		if d := c.ByCause[cause]; d > 0 {
			fmt.Fprintf(out, "    %-12s %s\n", cause, fd(d))
		}
	}
	total := sp.Gated + sp.Queued
	if c.Exact {
		fmt.Fprintf(out, "  conservation: causes sum to gated+queued = %s (exact)\n", fd(total))
	} else {
		fmt.Fprintf(out, "  conservation: causes cover %s of gated+queued = %s (decision records incomplete for this window)\n",
			fd(sp.Gated+c.Queued), fd(total))
	}
}

// dominantDetail compresses a chain's dominant cause into one table
// cell: the most representative round detail, or the gating edge.
func dominantDetail(c *obs.WaitChain, cause obs.WaitCause) string {
	if cause == obs.CauseGated {
		if len(c.GatedEdges) > 0 {
			e := c.GatedEdges[0]
			return fmt.Sprintf("waiting on q(%d,%d)", e.OnJob, e.OnSeq)
		}
		return "held before dispatch"
	}
	// The longest round charged to the dominant cause carries the most
	// representative detail.
	var best *obs.WaitRound
	for i := range c.Rounds {
		r := &c.Rounds[i]
		if !r.Serving && r.Cause == cause && (best == nil || r.Dur > best.Dur) {
			best = r
		}
	}
	if best == nil {
		return "-"
	}
	return best.Detail()
}

// printDist writes the percentile line the query and request sections share.
func printDist(out io.Writer, d obs.Dist) {
	fmt.Fprintf(out, "mean %s   p50 %s   p90 %s   p95 %s   p99 %s   max %s\n",
		fd(d.Mean), fd(d.P50), fd(d.P90), fd(d.P95), fd(d.P99), fd(d.Max))
}

// fms renders a float of milliseconds compactly.
func fms(v float64) string { return fmt.Sprintf("%.1fms", v) }

// printStitched renders one request's full record: the wall-clock phases
// the serving layer charged around the engine, and — when the trace
// carries the engine span with the same propagated ID (es is nil for a
// request shed or timed out before dispatch) — the virtual-clock phases
// inside it.
func printStitched(out io.Writer, rs *obs.ReqSpan, es *obs.Span) {
	fmt.Fprintf(out, "request %s\n", rs.ID)
	fmt.Fprintf(out, "  status %d   query %d   queue depth at admission %d\n",
		rs.Status, rs.Query, rs.QueueDepth)
	fmt.Fprintf(out, "  wall    %s = validate %s + queued %s + dispatch %s + execute %s + write %s\n",
		fd(rs.Wall), fd(rs.Validate), fd(rs.Queued), fd(rs.Dispatch), fd(rs.Execute), fd(rs.Write))
	if es != nil {
		fmt.Fprintf(out, "  virtual %s = gated %s + queued %s + overhead %s + disk %s + compute %s\n",
			fd(es.Total()), fd(es.Gated), fd(es.Queued), fd(es.Overhead), fd(es.Disk), fd(es.Compute))
		fmt.Fprintf(out, "  engine  query %d job %d: %d decisions, %d/%d cache hit/miss\n",
			es.Query, es.Job, es.Decisions, es.Hits, es.Misses)
	} else {
		fmt.Fprintln(out, "  virtual (no engine span carries this request ID)")
	}
}

// fd renders a duration with millisecond precision so reports stay
// readable (and byte-stable) across runs.
func fd(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "jawsreport: "+format+"\n", args...)
	os.Exit(1)
}
