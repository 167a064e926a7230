package main

import (
	"fmt"
	"io"
	"time"

	"jaws/internal/obs"
	"jaws/internal/textplot"
)

// timelineSlots is the fixed resolution of the streaming cache timeline.
const timelineSlots = 32

// schedAgg accumulates one scheduler's decision statistics: the atoms it
// picked and the sums their means are printed from.
type schedAgg struct {
	atoms     int
	k, ut, ue float64
}

// aggregator folds trace events into bounded state as they stream by:
// every structure here is fixed-size or bounded by the event vocabulary
// (schedulers, adaptation runs), never by the trace length. It feeds the
// event-stream sections of the report: event mix, per-scheduler decisions,
// cache timeline, α trajectory, gating waits and the disk profile.
type aggregator struct {
	counts map[obs.Kind]int64

	bySched    map[string]*schedAgg
	schedOrder []string

	// Cache timeline: fixed slot count over a growing window. When an
	// event lands past the window, the slot width doubles and adjacent
	// pairs merge, so resolution degrades gracefully instead of memory
	// growing with trace length.
	slotDur   time.Duration
	hitSlots  [timelineSlots]int64
	missSlots [timelineSlots]int64

	alpha textplot.Series

	waitSum, waitMin, waitMax float64 // gating waits of the admitted, seconds
	seqReads, readBytes       int64
	readCost                  float64 // Σ read cost, seconds
}

func newAggregator() *aggregator {
	return &aggregator{
		counts:  make(map[obs.Kind]int64),
		bySched: make(map[string]*schedAgg),
		slotDur: time.Millisecond,
		alpha:   textplot.Series{Label: "α by adaptation run"},
	}
}

// slot buckets t into the timeline, widening the window as needed.
func (a *aggregator) slot(t time.Duration) int {
	if t < 0 {
		t = 0
	}
	for t >= a.slotDur*timelineSlots {
		for i := 0; i < timelineSlots/2; i++ {
			a.hitSlots[i] = a.hitSlots[2*i] + a.hitSlots[2*i+1]
			a.missSlots[i] = a.missSlots[2*i] + a.missSlots[2*i+1]
		}
		for i := timelineSlots / 2; i < timelineSlots; i++ {
			a.hitSlots[i], a.missSlots[i] = 0, 0
		}
		a.slotDur *= 2
	}
	return int(t / a.slotDur)
}

// add folds one event in (the footer is the audit's, not an event).
func (a *aggregator) add(ev *obs.Event) {
	a.counts[ev.Kind]++
	switch ev.Kind {
	case obs.KindDecision:
		s := a.bySched[ev.Sched]
		if s == nil {
			s = &schedAgg{}
			a.bySched[ev.Sched] = s
			a.schedOrder = append(a.schedOrder, ev.Sched)
		}
		s.atoms++
		s.k += float64(ev.K)
		s.ut += ev.Ut
		s.ue += ev.Ue
	case obs.KindCacheHit:
		a.hitSlots[a.slot(ev.T)]++
	case obs.KindCacheMiss:
		a.missSlots[a.slot(ev.T)]++
	case obs.KindAlpha:
		a.alpha.Append(float64(ev.Run), ev.Alpha)
	case obs.KindGateAdmit:
		w := ev.Wait.Seconds()
		first := a.counts[obs.KindGateAdmit] == 1
		if first || w < a.waitMin {
			a.waitMin = w
		}
		if first || w > a.waitMax {
			a.waitMax = w
		}
		a.waitSum += w
	case obs.KindDiskRead:
		if ev.Seq {
			a.seqReads++
		}
		a.readBytes += ev.Bytes
		a.readCost += ev.Cost.Seconds()
	}
}

// print writes the event-stream sections over a trace of the given event
// count, each only when its events exist.
func (a *aggregator) print(out io.Writer, events int64) {
	a.printKindMix(out, events)
	a.printDecisions(out)
	a.printCacheTimeline(out)
	a.printAlphaTrajectory(out)
	a.printGating(out)
	a.printDisk(out)
}

// printKindMix tabulates event counts by kind.
func (a *aggregator) printKindMix(out io.Writer, events int64) {
	tb := &textplot.Table{Header: []string{"kind", "events", "share"}}
	for _, k := range obs.Kinds {
		if a.counts[k] == 0 {
			continue
		}
		tb.AddRow(string(k), fmt.Sprintf("%d", a.counts[k]),
			fmt.Sprintf("%.1f%%", 100*float64(a.counts[k])/float64(events)))
	}
	fmt.Fprintln(out, "\n== event mix ==")
	fmt.Fprint(out, tb.String())
}

// printDecisions summarizes the scheduling decisions per scheduler.
func (a *aggregator) printDecisions(out io.Writer) {
	if len(a.schedOrder) == 0 {
		return
	}
	tb := &textplot.Table{Header: []string{"scheduler", "atoms", "mean k", "mean U_t", "mean U_e"}}
	for _, s := range a.schedOrder {
		g := a.bySched[s]
		tb.AddRow(s, fmt.Sprintf("%d", g.atoms),
			fmt.Sprintf("%.1f", g.k/float64(g.atoms)),
			fmt.Sprintf("%.1f", g.ut/float64(g.atoms)),
			fmt.Sprintf("%.1f", g.ue/float64(g.atoms)))
	}
	fmt.Fprintln(out, "\n== scheduling decisions ==")
	fmt.Fprint(out, tb.String())
}

// printCacheTimeline charts the hit ratio's evolution over virtual time.
func (a *aggregator) printCacheTimeline(out io.Writer) {
	hits, misses := a.counts[obs.KindCacheHit], a.counts[obs.KindCacheMiss]
	if hits+misses == 0 {
		return
	}
	fmt.Fprintln(out, "\n== cache ==")
	fmt.Fprintf(out, "overall: %.1f%% hit (%d hits / %d misses)\n",
		100*float64(hits)/float64(hits+misses), hits, misses)

	s := textplot.Series{Label: "hit ratio % over virtual time"}
	for i := 0; i < timelineSlots; i++ {
		h, m := a.hitSlots[i], a.missSlots[i]
		if h+m == 0 {
			continue
		}
		at := a.slotDur.Seconds() * (float64(i) + 0.5)
		s.Append(at, 100*float64(h)/float64(h+m))
	}
	if len(s.X) > 1 {
		fmt.Fprint(out, textplot.LineChart([]textplot.Series{s}, 8))
	}
}

// printAlphaTrajectory charts α over the adaptation runs.
func (a *aggregator) printAlphaTrajectory(out io.Writer) {
	if len(a.alpha.X) == 0 {
		return
	}
	fmt.Fprintln(out, "\n== adaptive age bias ==")
	fmt.Fprintf(out, "runs: %d   final α: %.3f\n", len(a.alpha.X), a.alpha.Y[len(a.alpha.Y)-1])
	if len(a.alpha.X) > 1 {
		fmt.Fprint(out, textplot.LineChart([]textplot.Series{a.alpha}, 8))
	}
}

// printGating summarizes per-query gating waits and edge decisions.
func (a *aggregator) printGating(out io.Writer) {
	blocked, admitted := a.counts[obs.KindGateBlock], a.counts[obs.KindGateAdmit]
	edgeAdm, edgeRej := a.counts[obs.KindEdgeAdmit], a.counts[obs.KindEdgeReject]
	if blocked+admitted+edgeAdm+edgeRej == 0 {
		return
	}
	fmt.Fprintln(out, "\n== job-aware gating ==")
	fmt.Fprintf(out, "edges: %d admitted, %d rejected\n", edgeAdm, edgeRej)
	fmt.Fprintf(out, "queries blocked: %d, later admitted: %d\n", blocked, admitted)
	if admitted > 0 {
		fmt.Fprintf(out, "gating wait: mean %.3fs  min %.3fs  max %.3fs\n",
			a.waitSum/float64(admitted), a.waitMin, a.waitMax)
	}
}

// printDisk summarizes the read profile.
func (a *aggregator) printDisk(out io.Writer) {
	reads := a.counts[obs.KindDiskRead]
	if reads == 0 {
		return
	}
	fmt.Fprintln(out, "\n== disk ==")
	fmt.Fprintf(out, "reads: %d (%.1f%% sequential), %.2f GB, mean cost %.1f ms\n",
		reads, 100*float64(a.seqReads)/float64(reads),
		float64(a.readBytes)/1e9, a.readCost/float64(reads)*1e3)
}
