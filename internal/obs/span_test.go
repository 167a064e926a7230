package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

func mkSpan(id int64, total time.Duration) Span {
	// Split total across phases so PhaseSum()==Total() holds: half queued,
	// the rest split between disk and compute.
	half := total / 2
	rest := total - half
	return Span{
		Query:   id,
		Arrival: time.Duration(id) * time.Second,
		Done:    time.Duration(id)*time.Second + total,
		Queued:  half,
		Disk:    rest / 2,
		Compute: rest - rest/2,
	}
}

func TestNilSpanAggIsNoOp(t *testing.T) {
	var a *SpanAgg
	a.Add(Span{Query: 1})
	if a.Spans() != nil {
		t.Fatal("nil aggregator recorded something")
	}
	if sum := a.Summarize(5); sum.Count != 0 {
		t.Fatalf("nil aggregator summarized %d spans", sum.Count)
	}
}

func TestSummarizeSpansPercentilesAndWorstK(t *testing.T) {
	var spans []Span
	// 100 spans with totals 1s..100s.
	for i := 1; i <= 100; i++ {
		spans = append(spans, mkSpan(int64(i), time.Duration(i)*time.Second))
	}
	sum := SummarizeSpans(spans, 3)
	if sum.Count != 100 {
		t.Fatalf("count %d", sum.Count)
	}
	// Percentile convention matches the engine's: index n*q/100 of the
	// ascending order.
	if sum.P50 != 51*time.Second || sum.P95 != 96*time.Second || sum.P99 != 100*time.Second {
		t.Fatalf("percentiles p50=%v p95=%v p99=%v", sum.P50, sum.P95, sum.P99)
	}
	if sum.Max != 100*time.Second || sum.Mean != 50500*time.Millisecond {
		t.Fatalf("max %v mean %v", sum.Max, sum.Mean)
	}
	if len(sum.WorstK) != 3 || sum.WorstK[0].Total() != 100*time.Second || sum.WorstK[2].Total() != 98*time.Second {
		t.Fatalf("worst-k wrong: %+v", sum.WorstK)
	}
	if p := sum.Phases; p.Gated+p.Queued+p.Overhead+p.Disk+p.Compute != sum.TotalResponse {
		t.Fatalf("phase totals %+v != total response %v", p, sum.TotalResponse)
	}
	// Attribution shares must sum to 1 over conserving spans.
	var share float64
	for _, row := range sum.Attribution() {
		share += row.Share
	}
	if share < 0.999999 || share > 1.000001 {
		t.Fatalf("attribution shares sum to %g", share)
	}
}

func TestSummarizeSpansDeterministicOrder(t *testing.T) {
	// Same spans, reversed insertion order: identical summary, including
	// tie-breaks among equal totals.
	var fwd, rev []Span
	for i := 1; i <= 10; i++ {
		fwd = append(fwd, mkSpan(int64(i), time.Second)) // all equal totals
	}
	for i := len(fwd) - 1; i >= 0; i-- {
		rev = append(rev, fwd[i])
	}
	a, b := SummarizeSpans(fwd, 4), SummarizeSpans(rev, 4)
	if a.P50 != b.P50 || a.Mean != b.Mean || len(a.WorstK) != len(b.WorstK) {
		t.Fatalf("summaries diverge: %+v vs %+v", a, b)
	}
	for i := range a.WorstK {
		if a.WorstK[i].Query != b.WorstK[i].Query {
			t.Fatalf("worst-k order depends on insertion order: %v vs %v", a.WorstK[i].Query, b.WorstK[i].Query)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	sum := SummarizeSpans(nil, 5)
	if sum.Count != 0 || sum.WorstK != nil || sum.Mean != 0 {
		t.Fatalf("empty summary not zero: %+v", sum)
	}
	for _, row := range sum.Attribution() {
		if row.Share != 0 || row.MeanPerQuery != 0 {
			t.Fatalf("empty attribution carries values: %+v", row)
		}
	}
}

func TestSpanDoneRoundTripsThroughJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	want := Span{
		Query: 7, Job: 3, Seq: 2,
		Arrival: time.Second, Done: 4 * time.Second,
		Gated: 500 * time.Millisecond, Queued: 1500 * time.Millisecond,
		Overhead: 200 * time.Millisecond, Disk: 600 * time.Millisecond,
		Compute:   200 * time.Millisecond,
		Decisions: 2, Hits: 3, Misses: 1, Blocked: true,
	}
	tr.SpanDone(want)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("no span line written")
	}
	var ev Event
	if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != KindSpan || ev.Span == nil {
		t.Fatalf("wrong event: %+v", ev)
	}
	if *ev.Span != want {
		t.Fatalf("span round trip:\n got %+v\nwant %+v", *ev.Span, want)
	}
	if ev.T != want.Done {
		t.Fatalf("span event stamped %v, want completion time %v", ev.T, want.Done)
	}
}

func TestObsSpanAggregatorAccessor(t *testing.T) {
	var o *Obs
	if o.SpanAggregator() != nil {
		t.Fatal("nil Obs returned an aggregator")
	}
	agg := NewSpanAgg()
	o = &Obs{Spans: agg}
	if o.SpanAggregator() != agg {
		t.Fatal("accessor lost the aggregator")
	}
}

func TestTracerDropCountersAndFooter(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{T: time.Duration(i), Kind: KindCacheHit})
	}
	if got := tr.SinkDropped(); got != 0 {
		t.Fatalf("sink dropped %d, want 0", got)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// The sink saw all 10 events plus exactly one footer line.
	var footer *TraceFooter
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		lines++
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind == KindFooter {
			if footer != nil {
				t.Fatal("footer written twice")
			}
			footer = ev.Footer
		}
	}
	if lines != 11 {
		t.Fatalf("%d lines written, want 10 events + 1 footer", lines)
	}
	if footer == nil {
		t.Fatal("no footer written on Close")
	}
	if footer.Total != 10 || footer.SinkDropped != 0 {
		t.Fatalf("footer %+v, want total=10 sink_dropped=0", footer)
	}
	// Close is idempotent: no second footer.
	before := buf.Len()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != before {
		t.Fatal("second Close wrote more bytes")
	}
}

// failAfter errors every write past the first n.
type failAfter struct {
	n      int
	writes int
}

func (w *failAfter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.n {
		return 0, errors.New("sink full")
	}
	return len(p), nil
}

func TestSinkDroppedCountsWriteErrors(t *testing.T) {
	// Every event is bigger than the tracer's buffer, so each one is a
	// write of its own, and each write fails.
	w := &failAfter{n: 0}
	tr := NewTracer(w)
	big := make([]byte, 4096)
	for i := range big {
		big[i] = 'x'
	}
	for i := 0; i < 40; i++ {
		tr.Emit(Event{T: time.Duration(i), Kind: KindDecision, Sched: string(big)})
	}
	if err := tr.Close(); err == nil {
		t.Fatal("Close hid the sink's write errors")
	}
	if got := tr.SinkDropped(); got != 40 {
		t.Fatalf("sink dropped %d, want all 40 events", got)
	}
	if tr.Total() != 40 {
		t.Fatalf("emission total %d, want 40 (drops still count as emissions)", tr.Total())
	}
}

// flakySink fails every write while broken, landing only its first
// landed bytes; it takes writes whole otherwise.
type flakySink struct {
	bytes.Buffer
	broken bool
	landed int
}

func (w *flakySink) Write(p []byte) (int, error) {
	if w.broken {
		n := min(w.landed, len(p))
		w.Buffer.Write(p[:n])
		return n, errors.New("disk full")
	}
	return w.Buffer.Write(p)
}

// TestSinkDroppedCountsLostLinesOnly checks that a drop is a line the
// sink did not receive whole, and nothing else: the lines a failed write
// landed are not dropped, the tracer keeps writing once the sink
// recovers, and the footer that closes the file accounts for every
// emitted event.
func TestSinkDroppedCountsLostLinesOnly(t *testing.T) {
	line := func() int {
		var b bytes.Buffer
		tr := NewTracer(&b)
		tr.CacheHit(0, 0, 0)
		tr.Flush()
		return b.Len()
	}()
	sink := &flakySink{}
	tr := NewTracer(sink)
	for i := 0; i < 5; i++ {
		tr.CacheHit(0, 0, 0)
	}
	sink.broken, sink.landed = true, 2*line+line/2 // two whole lines, half a third
	if err := tr.Flush(); err == nil {
		t.Fatal("Flush hid the write error")
	}
	if got := tr.SinkDropped(); got != 3 {
		t.Fatalf("sink dropped %d, want 3 (5 lines, 2 landed whole)", got)
	}

	sink.Reset()
	sink.broken = false
	for i := 0; i < 4; i++ {
		tr.CacheHit(0, 0, 0)
	}
	tr.Close()
	var a TraceAudit
	if err := ScanTrace(&sink.Buffer, func(ev *Event) error { a.Add(ev); return nil }); err != nil {
		t.Fatal(err)
	}
	if a.Footer == nil || a.Footer.Total != 9 || a.Footer.SinkDropped != 3 || a.Events != 4 {
		t.Fatalf("recovered sink holds %d events, footer %+v; want 4 events, total 9, sink_dropped 3", a.Events, a.Footer)
	}
	var report bytes.Buffer
	if err := a.Report(&report); err == nil || !strings.Contains(report.String(), "3 events lost") {
		t.Fatalf("audit passed a trace with lost lines:\n%s", report.String())
	}
}
