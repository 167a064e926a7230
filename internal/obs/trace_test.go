package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer must report disabled")
	}
	// Every emitter must be callable on nil.
	tr.Emit(Event{Kind: KindDecision})
	tr.Decision(0, "JAWS", 1, 2, 3, 4, 5, 0.5)
	tr.CacheHit(0, 1, 2)
	tr.CacheMiss(0, 1, 2)
	tr.CacheEvict(0, 1, 2)
	tr.DiskRead(0, 0, 8<<20, true, time.Millisecond)
	tr.GateEdge(0, true, 1, 0, 2, 1)
	tr.GateBlock(0, 9, 1, 0)
	tr.GateAdmit(0, 9, 1, 0, time.Second)
	tr.Prefetch(0, 1, 2, 3, time.Millisecond)
	tr.Alpha(0, 1, 0.5, 1, 2)
	if tr.Total() != 0 || tr.SinkDropped() != 0 {
		t.Fatal("nil tracer must record nothing")
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Decision(100*time.Millisecond, "JAWS", 3, 42, 5, 1.5, 2.5, 0.25)
	tr.DiskRead(200*time.Millisecond, 1024, 8<<20, true, 3*time.Millisecond)
	tr.GateAdmit(300*time.Millisecond, 7, 2, 1, 50*time.Millisecond)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	var got []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		got = append(got, ev)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d events, want 3", len(got))
	}
	d := got[0]
	if d.Kind != KindDecision || d.Sched != "JAWS" || d.Step != 3 || d.Code != 42 ||
		d.K != 5 || d.Ut != 1.5 || d.Ue != 2.5 || d.Alpha != 0.25 {
		t.Fatalf("decision round-trip mismatch: %+v", d)
	}
	if r := got[1]; r.Kind != KindDiskRead || !r.Seq || r.Bytes != 8<<20 || r.Cost != 3*time.Millisecond {
		t.Fatalf("disk read round-trip mismatch: %+v", r)
	}
	if g := got[2]; g.Kind != KindGateAdmit || g.Query != 7 || g.Wait != 50*time.Millisecond {
		t.Fatalf("gate admit round-trip mismatch: %+v", g)
	}
}

func TestOmitEmptyKeepsLinesLean(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.CacheHit(time.Second, 0, 0)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	for _, absent := range []string{"sched", "ut", "ue", "alpha", "bytes", "job", "wait"} {
		if bytes.Contains([]byte(line), []byte(`"`+absent+`"`)) {
			t.Fatalf("cache_hit line should omit %q: %s", absent, line)
		}
	}
}

func TestConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.CacheMiss(time.Duration(i), w, uint64(i))
			}
		}(w)
	}
	wg.Wait()
	if tr.Total() != 8*500 {
		t.Fatalf("total = %d, want %d", tr.Total(), 8*500)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var a TraceAudit
	if err := ScanTrace(&buf, func(ev *Event) error { a.Add(ev); return nil }); err != nil {
		t.Fatal(err)
	}
	if a.Events != 8*500 || a.Report(io.Discard) != nil {
		t.Fatalf("sink holds %d events (footer %+v), want every one of %d", a.Events, a.Footer, 8*500)
	}
}

type closeRecorder struct {
	bytes.Buffer
	closed bool
}

func (c *closeRecorder) Close() error { c.closed = true; return nil }

func TestCloseClosesSink(t *testing.T) {
	sink := &closeRecorder{}
	tr := NewTracer(sink)
	tr.CacheHit(0, 0, 0)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if !sink.closed {
		t.Fatal("Close must close a closable sink")
	}
	if sink.Len() == 0 {
		t.Fatal("Close must flush buffered events first")
	}
}
