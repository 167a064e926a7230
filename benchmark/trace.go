package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the harness
// around its calls into the layer (no span comes from inside the program).
// Spans of one request, decision or replay share an ID; Parent names the
// enclosing span of the same ID, so a layer's self time is its duration
// minus that of the spans naming it as parent.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the decorators run with tracing off.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(name string, id int64, parent string, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{Name: name, ID: id, Parent: parent, Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// reset drops the spans recorded so far (the warm-up's).
func (r *recorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

// writeJSONL writes one span per line, in start order.
func (r *recorder) writeJSONL(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is one span name's aggregate.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	// Self is Total minus the time of the spans that name this one as
	// their parent (matched by ID).
	Self time.Duration
}

// selfTimes aggregates the spans by name and subtracts every child's
// duration from its parent's.
func (r *recorder) selfTimes() []layerTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	agg := map[string]*layerTime{}
	get := func(name string) *layerTime {
		lt := agg[name]
		if lt == nil {
			lt = &layerTime{Name: name}
			agg[name] = lt
		}
		return lt
	}
	for _, s := range r.spans {
		d := time.Duration(s.End - s.Start)
		lt := get(s.Name)
		lt.Count++
		lt.Total += d
		lt.Self += d
		if s.Parent != "" {
			get(s.Parent).Self -= d
		}
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// union returns the total time covered by at least one span of the given
// names: the wall time during which those layers were occupied at all.
func (r *recorder) union(names ...string) time.Duration {
	r.mu.Lock()
	var iv [][2]int64
	for _, s := range r.spans {
		if slices.Contains(names, s.Name) {
			iv = append(iv, [2]int64{s.Start, s.End})
		}
	}
	r.mu.Unlock()
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, v := range iv {
		if i == 0 || v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return time.Duration(total)
}

func (lt layerTime) String() string {
	return fmt.Sprintf("span %-16s n=%-7d total %9.2f ms  self %9.2f ms", lt.Name, lt.Count,
		float64(lt.Total)/float64(time.Millisecond), float64(lt.Self)/float64(time.Millisecond))
}
