// Package vclock provides a virtual clock and a future-event list for
// deterministic discrete-event simulation.
//
// All JAWS experiments run against a virtual clock rather than wall time so
// that throughput and response-time measurements are reproducible and so
// that a simulated 800 GB database can be exercised in milliseconds of real
// time. The clock only moves forward; components charge costs to it by
// calling Advance and schedule future work (query arrivals, gated releases)
// through the EventList.
package vclock

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Clock is a monotonically advancing virtual clock. The zero value is a
// clock at virtual time zero, ready to use.
//
// The clock has one writer, the simulation loop that owns it. Now may be
// called from any goroutine at any time (a serving session reads it while
// its loop advances) and returns, without a lock, some time the clock has
// held.
type Clock struct {
	now atomic.Int64
}

// Now returns the current virtual time as an offset from the simulation
// start.
func (c *Clock) Now() time.Duration { return time.Duration(c.now.Load()) }

// Advance moves the clock forward by d and returns the new time.
// Advancing by a negative duration is a programming error and panics:
// virtual time, like real time, never rewinds.
func (c *Clock) Advance(d time.Duration) time.Duration {
	if d < 0 {
		panic(fmt.Sprintf("vclock: cannot advance by negative duration %v", d))
	}
	return time.Duration(c.now.Add(int64(d)))
}

// AdvanceTo moves the clock forward to t. If t is in the past the clock is
// left unchanged; simulation components use this to fast-forward to the
// next arrival when the system is idle. Like Advance, it is called by the
// clock's one writer only: the read and the store are not one atomic step.
func (c *Clock) AdvanceTo(t time.Duration) time.Duration {
	if now := time.Duration(c.now.Load()); t <= now {
		return now
	}
	c.now.Store(int64(t))
	return t
}

// Event is an entry in the future-event list: an opaque payload that
// becomes runnable at a virtual time.
type Event struct {
	At      time.Duration
	Payload any

	seq int // tie-break so equal-time events pop in push order
}

// before orders events by virtual time, then by push order.
func (ev *Event) before(other *Event) bool {
	if ev.At != other.At {
		return ev.At < other.At
	}
	return ev.seq < other.seq
}

// EventList is a min-heap of future events ordered by virtual time.
// Events are held by value: pushing and popping allocate nothing beyond
// the heap array's growth. It is not safe for concurrent use; the
// simulation loop owns it.
type EventList struct {
	h   []Event
	seq int
}

// Push schedules payload to become runnable at virtual time at.
func (l *EventList) Push(at time.Duration, payload any) {
	l.seq++
	l.h = append(l.h, Event{At: at, Payload: payload, seq: l.seq})
	// Sift up.
	for i := len(l.h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !l.h[i].before(&l.h[parent]) {
			break
		}
		l.h[i], l.h[parent] = l.h[parent], l.h[i]
		i = parent
	}
}

// Pop removes and returns the earliest event; ok is false when the list is
// empty.
func (l *EventList) Pop() (ev Event, ok bool) {
	n := len(l.h) - 1
	if n < 0 {
		return Event{}, false
	}
	ev = l.h[0]
	l.h[0] = l.h[n]
	l.h[n] = Event{} // drop the payload reference
	l.h = l.h[:n]
	// Sift down.
	for i := 0; ; {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < n; c++ {
			if l.h[c].before(&l.h[least]) {
				least = c
			}
		}
		if least == i {
			return ev, true
		}
		l.h[i], l.h[least] = l.h[least], l.h[i]
		i = least
	}
}

// Peek returns the earliest event without removing it; ok is false when
// the list is empty.
func (l *EventList) Peek() (ev Event, ok bool) {
	if len(l.h) == 0 {
		return Event{}, false
	}
	return l.h[0], true
}
