package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jaws/internal/obs"
)

// report runs the default report over a shared fixture.
func report(t *testing.T, fixture string) (string, error) {
	t.Helper()
	in, err := os.Open(filepath.Join("..", "testdata", fixture))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	var out bytes.Buffer
	err = run(in, fixture, &out, 10, "", "")
	return out.String(), err
}

// TestStreamSections holds the report's event-stream sections to their
// goldens: each must appear in the report byte for byte.
func TestStreamSections(t *testing.T) {
	for _, name := range []string{"trace", "truncated"} {
		t.Run(name, func(t *testing.T) {
			got, _ := report(t, name+".jsonl")
			want, err := os.ReadFile(filepath.Join("testdata", "sections_"+name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(got, string(want)) {
				t.Errorf("report lacks the sections of sections_%s.golden:\n%s", name, got)
			}
		})
	}
}

// TestEventMixListsEveryKind checks the event mix on the service fixture:
// request spans are listed and the shares cover every event.
func TestEventMixListsEveryKind(t *testing.T) {
	got, err := report(t, "service.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	mix := got[strings.Index(got, "== event mix =="):]
	mix = mix[:strings.Index(mix, "\n\n")]
	if !strings.Contains(mix, "reqspan") {
		t.Errorf("event mix omits reqspan:\n%s", mix)
	}
	var share float64
	for _, line := range strings.Split(mix, "\n")[3:] {
		var kind string
		var n int
		var pct float64
		if _, err := fmt.Sscanf(line, "%s %d %f%%", &kind, &n, &pct); err != nil {
			t.Fatalf("event-mix row %q: %v", line, err)
		}
		share += pct
	}
	if share < 99.9 || share > 100.1 {
		t.Errorf("event-mix shares sum to %.1f%%, want 100%%:\n%s", share, mix)
	}
}

// TestCutTrace feeds a trace with one mid-file event missing: the report
// still renders, warns that the file and the footer disagree, and fails
// the audit.
func TestCutTrace(t *testing.T) {
	got, err := report(t, "cut.jsonl")
	if !errors.Is(err, errIntegrity) {
		t.Fatalf("err = %v, want errIntegrity", err)
	}
	if want := "WARNING: file holds 9 events but the footer claims 10 emitted"; !strings.Contains(got, want) {
		t.Errorf("report lacks %q:\n%s", want, got)
	}
}

// TestStreamingTimelineRescale feeds a synthetic stream whose virtual span
// vastly exceeds the timeline's initial window and checks the aggregate
// stays exact while memory stays fixed.
func TestStreamingTimelineRescale(t *testing.T) {
	var b strings.Builder
	const n = 5000
	for i := 0; i < n; i++ {
		kind := obs.KindCacheHit
		if i%4 == 0 {
			kind = obs.KindCacheMiss
		}
		// Spread events over ~83 virtual minutes: the millisecond-wide
		// initial window must double many times.
		fmt.Fprintf(&b, `{"t":%d,"kind":"%s","step":1,"code":5}`+"\n", int64(i)*1_000_000_000, kind)
	}
	b.WriteString(`{"t":1,"kind":"span","span":{"query":1,"arr":0,"done":1,"queued":1}}` + "\n")
	var out bytes.Buffer
	if err := run(strings.NewReader(b.String()), "synthetic", &out, 10, "", ""); !errors.Is(err, errIntegrity) {
		t.Fatalf("err = %v, want errIntegrity (the stream has no footer)", err)
	}
	s := out.String()
	if !strings.Contains(s, fmt.Sprintf("%d hits", n-n/4)) || !strings.Contains(s, fmt.Sprintf("%d misses", n/4)) {
		t.Fatalf("hit/miss totals lost in rescaling:\n%s", s)
	}
	var hits, misses int64
	agg := newAggregator()
	for i := 0; i < n; i++ {
		ev := obs.Event{T: time.Duration(i) * time.Second, Kind: obs.KindCacheHit}
		if i%4 == 0 {
			ev.Kind = obs.KindCacheMiss
		}
		agg.add(&ev)
	}
	for i := 0; i < timelineSlots; i++ {
		hits += agg.hitSlots[i]
		misses += agg.missSlots[i]
	}
	if hits != n-n/4 || misses != n/4 {
		t.Fatalf("slot totals %d/%d after rescale, want %d/%d", hits, misses, n-n/4, n/4)
	}
}

// TestEmptyTrace checks the error path.
func TestEmptyTrace(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader(""), "empty", &out, 10, "", ""); err == nil {
		t.Fatal("expected an error for an empty trace")
	}
}
