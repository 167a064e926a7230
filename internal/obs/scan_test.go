package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestQuantileRank holds Quantile to the two forms it displaced: rank
// n*q/100 of the ascending order (the engine's report) and n-1-n*q/100 of
// the descending one (the span summaries and the per-cause tails).
func TestQuantileRank(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101} {
		asc, desc := make([]time.Duration, n), make([]time.Duration, n)
		for i := range asc {
			asc[i] = time.Duration(i+1) * time.Millisecond
			desc[n-1-i] = asc[i]
		}
		for _, q := range []int{50, 90, 95, 99} {
			got := Quantile(asc, q)
			if want := asc[n*q/100]; got != want {
				t.Errorf("n=%d q=%d: %v, ascending form gives %v", n, q, got, want)
			}
			if want := desc[n-1-n*q/100]; got != want {
				t.Errorf("n=%d q=%d: %v, descending form gives %v", n, q, got, want)
			}
		}
	}
	if got := Quantile(nil, 99); got != 0 {
		t.Errorf("empty sample: %v, want 0", got)
	}
}

// TestKindsListsEveryKind walks the Kind constants declared in trace.go and
// fails if the exported list lacks one (the footer is not an event).
func TestKindsListsEveryKind(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "trace.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[Kind]bool{}
	for _, k := range Kinds {
		if listed[k] {
			t.Errorf("Kinds lists %q twice", k)
		}
		listed[k] = true
	}
	declared := 0
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "Kind" {
			return true
		}
		for _, v := range vs.Values {
			lit, ok := v.(*ast.BasicLit)
			if !ok {
				continue
			}
			declared++
			k := Kind(strings.Trim(lit.Value, `"`))
			if k != KindFooter && !listed[k] {
				t.Errorf("Kinds lacks %q", k)
			}
		}
		return true
	})
	if declared != len(Kinds)+1 {
		t.Errorf("trace.go declares %d kinds, Kinds lists %d (+ the footer)", declared, len(Kinds))
	}
}

var lineNumbered = regexp.MustCompile(`^line \d+: `)

func TestScanTraceErrorsCarryLineNumbers(t *testing.T) {
	ok := `{"t":1,"kind":"cache_hit","step":1,"code":5}` + "\n"
	for _, tc := range []struct{ name, in, want string }{
		{"malformed", ok + "\n" + "{not json}\n", "line 3: "},
		{"span without payload", ok + `{"kind":"span"}` + "\n", "line 2: span event without payload"},
		{"reqspan without payload", `{"kind":"reqspan"}`, "line 1: reqspan event without payload"},
		{"record without payload", `{"kind":"decision_record"}`, "line 1: decision_record event without payload"},
		{"footer without payload", `{"kind":"trace_footer"}`, "line 1: trace_footer event without payload"},
		{"over-long line", ok + ok + strings.Repeat("x", maxTraceLine+1), "line 3: bufio.Scanner: token too long"},
	} {
		err := ScanTrace(strings.NewReader(tc.in), func(*Event) error { return nil })
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want prefix %q", tc.name, err, tc.want)
		}
	}

	// The callback's error stops the scan and is numbered too; blank lines
	// count as lines, and no field survives from one event to the next.
	stop := errors.New("stop")
	var steps []int
	err := ScanTrace(strings.NewReader(ok+"\n"+`{"kind":"cache_miss"}`+"\n"+ok), func(ev *Event) error {
		steps = append(steps, ev.Step)
		if ev.Kind == KindCacheMiss {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || err.Error() != "line 3: stop" {
		t.Errorf("callback error: %v, want line 3: stop", err)
	}
	if !reflect.DeepEqual(steps, []int{1, 0}) {
		t.Errorf("steps seen = %v, want [1 0]", steps)
	}
}

// TestTraceAudit drives every check to failure once, and a clean trace
// through with none.
func TestTraceAudit(t *testing.T) {
	span := func(queued time.Duration) *Event {
		return &Event{Kind: KindSpan, Span: &Span{Done: time.Second, Queued: queued}}
	}
	req := func(exec time.Duration) *Event {
		return &Event{Kind: KindReqSpan, Req: &ReqSpan{Wall: time.Second, Execute: exec}}
	}
	footer := func(total, sinkDropped int64) *Event {
		return &Event{Kind: KindFooter, Footer: &TraceFooter{Total: total, SinkDropped: sinkDropped}}
	}
	hit := &Event{Kind: KindCacheHit}
	for _, tc := range []struct {
		name   string
		events []*Event
		want   string // "" for an intact trace, else the first failure
		lines  int
	}{
		{"intact", []*Event{hit, span(time.Second), req(time.Second), footer(3, 0)}, "", 3},
		{"span violation", []*Event{span(0), footer(1, 0)}, "1 spans violate", 2},
		{"request violation", []*Event{span(time.Second), req(0), footer(2, 0)}, "1 request spans violate", 3},
		{"no footer", []*Event{span(time.Second)}, "no trace footer", 2},
		{"sink drops", []*Event{span(time.Second), footer(3, 2)}, "footer reports 2 events lost", 2},
		{"event missing", []*Event{span(time.Second), footer(2, 0)}, "file holds 1 events but the footer claims 2", 2},
		{"both", []*Event{span(time.Second), footer(9, 2)}, "footer reports 2 events lost", 3},
	} {
		var a TraceAudit
		for _, ev := range tc.events {
			a.Add(ev)
		}
		var out bytes.Buffer
		err := a.Report(&out)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: err = %v, want none", tc.name, err)
		case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want prefix %q", tc.name, err, tc.want)
		}
		if got := strings.Count(out.String(), "\n"); got != tc.lines {
			t.Errorf("%s: %d report lines, want %d:\n%s", tc.name, got, tc.lines, out.String())
		}
		if (err != nil) != strings.Contains(out.String(), "WARNING: ") {
			t.Errorf("%s: err = %v but report reads:\n%s", tc.name, err, out.String())
		}
	}
}

// FuzzScanTrace throws arbitrary bytes at the reader: it must not panic,
// every error must name a line, and the events it yields before stopping
// must be the ones json.Unmarshal gives line by line.
func FuzzScanTrace(f *testing.F) {
	var sb strings.Builder
	tr := NewTracer(&sb)
	tr.CacheHit(time.Millisecond, 1, 5)
	tr.SpanDone(Span{Query: 1, Done: time.Second, Queued: time.Second})
	tr.ReqSpanDone(ReqSpan{ID: "r1", Wall: time.Second, Execute: time.Second})
	tr.DecisionRecordDone(&DecisionRecord{Seq: 1})
	if err := tr.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(sb.String()))
	f.Add([]byte(`{"kind":"span"}` + "\n"))
	f.Add([]byte("\n\n{}\n{\"t\":\"x\"}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got []Event
		err := ScanTrace(bytes.NewReader(data), func(ev *Event) error {
			got = append(got, *ev)
			return nil
		})
		if err != nil && !lineNumbered.MatchString(err.Error()) {
			t.Fatalf("error without a line number: %v", err)
		}
		var want []Event
		for _, line := range bytes.Split(data, []byte("\n")) {
			line = bytes.TrimSuffix(line, []byte("\r"))
			if len(line) == 0 {
				continue
			}
			var ev Event
			if json.Unmarshal(line, &ev) != nil || ev.missingPayload() {
				break
			}
			want = append(want, ev)
		}
		if err == nil && len(got) != len(want) {
			t.Fatalf("read %d events without error, line-by-line decoding gives %d", len(got), len(want))
		}
		if len(got) > len(want) || !reflect.DeepEqual(got, want[:len(got)]) {
			t.Fatalf("events diverge from line-by-line decoding:\n got %s\nwant %s", fmt.Sprint(got), fmt.Sprint(want))
		}
	})
}
