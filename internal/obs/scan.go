package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// maxTraceLine bounds one JSONL line of a trace file.
const maxTraceLine = 1 << 20

// ScanTrace reads a JSONL trace — the format a Tracer's sink receives —
// and calls fn with every event in file order, the footer included. It is
// the one reader of that format. Blank lines are skipped, and every error
// names the line it came from: a malformed or over-long line, an event
// whose kind promises a payload it does not carry, or an error fn
// returned. The event is fn's only until it returns.
func ScanTrace(r io.Reader, fn func(*Event) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxTraceLine)
	var ev Event
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		ev = Event{}
		err := json.Unmarshal(b, &ev)
		if err == nil && ev.missingPayload() {
			err = fmt.Errorf("%s event without payload", ev.Kind)
		}
		if err == nil {
			err = fn(&ev)
		}
		if err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("line %d: %w", line+1, err)
	}
	return nil
}

// missingPayload reports an event whose kind carries a pointer payload
// that is absent.
func (ev *Event) missingPayload() bool {
	switch ev.Kind {
	case KindSpan:
		return ev.Span == nil
	case KindReqSpan:
		return ev.Req == nil
	case KindDecisionRecord:
		return ev.Flight == nil
	case KindFooter:
		return ev.Footer == nil
	}
	return false
}

// TraceAudit is the one integrity check of a trace file: feed it every
// event ScanTrace yields, then Report. It checks that each span and each
// request span conserves (its phases sum exactly to its total), that the
// writer closed the file with a footer, that the sink lost nothing, and
// that the file holds as many events as the footer says were written —
// so neither a trace cut short nor one with a line missing in the middle
// passes for a complete one.
type TraceAudit struct {
	// Events counts the events in the file, the footer excepted.
	Events int64
	// Spans and ReqSpans count the lifecycle records seen; the Violations
	// count those whose phase sum differs from their total.
	Spans, SpanViolations       int
	ReqSpans, ReqSpanViolations int
	// Footer is the closing record, nil when the file has none.
	Footer *TraceFooter
}

// Add folds one event in. Events must carry their payloads, as those from
// ScanTrace do.
func (a *TraceAudit) Add(ev *Event) {
	switch ev.Kind {
	case KindFooter:
		a.Footer = ev.Footer
		return
	case KindSpan:
		a.Spans++
		if ev.Span.PhaseSum() != ev.Span.Total() {
			a.SpanViolations++
		}
	case KindReqSpan:
		a.ReqSpans++
		if ev.Req.PhaseSum() != ev.Req.Wall {
			a.ReqSpanViolations++
		}
	}
	a.Events++
}

// Report writes one line per check, a WARNING line for each that failed,
// and returns the first failure (nil for an intact trace). A caller
// should fail on it, not just print it: a trace that does not conserve or
// is missing events makes every number derived from it suspect.
func (a *TraceAudit) Report(w io.Writer) error {
	var first error
	warn := func(format string, args ...any) {
		err := fmt.Errorf(format, args...)
		fmt.Fprintf(w, "WARNING: %v\n", err)
		if first == nil {
			first = err
		}
	}
	if a.SpanViolations > 0 {
		warn("%d spans violate the attribution invariant (phase sum != total)", a.SpanViolations)
	} else {
		fmt.Fprintf(w, "attribution invariant: all %d spans conserve (phase sum == total)\n", a.Spans)
	}
	if a.ReqSpanViolations > 0 {
		warn("%d request spans violate the attribution invariant (phase sum != wall)", a.ReqSpanViolations)
	} else if a.ReqSpans > 0 {
		fmt.Fprintf(w, "request invariant: all %d request spans conserve (phase sum == wall)\n", a.ReqSpans)
	}
	f := a.Footer
	if f == nil {
		warn("no trace footer — the trace was cut short (writer crashed or was not closed)")
		return first
	}
	if f.SinkDropped > 0 {
		warn("footer reports %d events lost to sink write errors", f.SinkDropped)
	}
	if f.Total != a.Events+f.SinkDropped {
		warn("file holds %d events but the footer claims %d emitted", a.Events, f.Total)
	} else if f.SinkDropped == 0 {
		fmt.Fprintf(w, "footer: %d events emitted, 0 lost\n", f.Total)
	}
	return first
}
