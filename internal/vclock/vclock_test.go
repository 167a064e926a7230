package vclock

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestClockZeroValue(t *testing.T) {
	var c Clock
	if got := c.Now(); got != 0 {
		t.Fatalf("zero clock Now() = %v, want 0", got)
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	if got := c.Advance(5 * time.Second); got != 5*time.Second {
		t.Fatalf("Advance returned %v, want 5s", got)
	}
	c.Advance(time.Millisecond)
	if got := c.Now(); got != 5*time.Second+time.Millisecond {
		t.Fatalf("Now() = %v, want 5.001s", got)
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestClockAdvanceTo(t *testing.T) {
	var c Clock
	c.Advance(10 * time.Second)
	if got := c.AdvanceTo(5 * time.Second); got != 10*time.Second {
		t.Fatalf("AdvanceTo(past) = %v, want clock unchanged at 10s", got)
	}
	if got := c.AdvanceTo(20 * time.Second); got != 20*time.Second {
		t.Fatalf("AdvanceTo(future) = %v, want 20s", got)
	}
}

func TestClockConcurrentAdvance(t *testing.T) {
	var c Clock
	const workers, perWorker = 8, 1000
	done := make(chan struct{})
	for i := 0; i < workers; i++ {
		go func() {
			for j := 0; j < perWorker; j++ {
				c.Advance(time.Microsecond)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < workers; i++ {
		<-done
	}
	want := time.Duration(workers*perWorker) * time.Microsecond
	if got := c.Now(); got != want {
		t.Fatalf("concurrent advances lost updates: Now() = %v, want %v", got, want)
	}
}

// Now is read without a lock while the clock's one writer advances it: run
// under -race, the reads must be race-free and, since virtual time never
// rewinds, never decrease.
func TestClockNowConcurrentWithWriter(t *testing.T) {
	var c Clock
	const steps = 20000
	done := make(chan time.Duration)
	go func() {
		last := time.Duration(0)
		for last < steps*time.Microsecond {
			now := c.Now()
			if now < last {
				t.Errorf("Now went back from %v to %v", last, now)
				break
			}
			last = now
		}
		done <- last
	}()
	for i := 0; i < steps; i++ {
		if i%2 == 0 {
			c.Advance(time.Microsecond)
		} else {
			c.AdvanceTo(c.Now() + time.Microsecond)
		}
	}
	if got := <-done; got != steps*time.Microsecond {
		t.Fatalf("reader stopped at %v, want %v", got, steps*time.Microsecond)
	}
}

func TestEventListOrdering(t *testing.T) {
	var l EventList
	l.Push(3*time.Second, "c")
	l.Push(1*time.Second, "a")
	l.Push(2*time.Second, "b")
	var got []string
	for ev, ok := l.Pop(); ok; ev, ok = l.Pop() {
		got = append(got, ev.Payload.(string))
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestEventListFIFOTieBreak(t *testing.T) {
	var l EventList
	for i := 0; i < 10; i++ {
		l.Push(time.Second, i)
	}
	for i := 0; i < 10; i++ {
		ev, _ := l.Pop()
		if ev.Payload.(int) != i {
			t.Fatalf("equal-time events popped out of push order: got %d at position %d", ev.Payload, i)
		}
	}
}

func TestEventListPeek(t *testing.T) {
	var l EventList
	if _, ok := l.Peek(); ok {
		t.Fatal("Peek on empty list should report nothing")
	}
	l.Push(time.Second, "x")
	if ev, ok := l.Peek(); !ok || ev.Payload != "x" {
		t.Fatalf("Peek = %v, want event x", ev)
	}
	if len(l.h) != 1 {
		t.Fatal("Peek must not remove the event")
	}
}

func TestEventListPopEmpty(t *testing.T) {
	var l EventList
	if _, ok := l.Pop(); ok {
		t.Fatal("Pop on empty list should report nothing")
	}
}

// Property: popping all events always yields them in non-decreasing time
// order, regardless of push order.
func TestEventListSortedProperty(t *testing.T) {
	f := func(times []int64) bool {
		var l EventList
		for _, ti := range times {
			if ti < 0 {
				ti = -ti
			}
			l.Push(time.Duration(ti), ti)
		}
		prev := time.Duration(-1)
		for ev, ok := l.Pop(); ok; ev, ok = l.Pop() {
			if ev.At < prev {
				return false
			}
			prev = ev.At
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the event list is a permutation-stable priority queue — the
// multiset of popped times equals the multiset of pushed times.
func TestEventListPreservesMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var l EventList
	var pushed []time.Duration
	for i := 0; i < 500; i++ {
		d := time.Duration(rng.Intn(100)) * time.Millisecond
		pushed = append(pushed, d)
		l.Push(d, nil)
	}
	var popped []time.Duration
	for ev, ok := l.Pop(); ok; ev, ok = l.Pop() {
		popped = append(popped, ev.At)
	}
	if len(popped) != len(pushed) {
		t.Fatalf("popped %d events, pushed %d", len(popped), len(pushed))
	}
	sort.Slice(pushed, func(i, j int) bool { return pushed[i] < pushed[j] })
	for i := range pushed {
		if pushed[i] != popped[i] {
			t.Fatalf("multiset mismatch at %d: pushed %v popped %v", i, pushed[i], popped[i])
		}
	}
}

// Equal-time events interleaved with earlier and later ones, pushed while
// others pop, still leave in push order among themselves.
func TestEventListFIFOUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var l EventList
	pushed := 0
	last := make(map[time.Duration]int) // per instant, the last push number popped
	pop := func() {
		ev, ok := l.Pop()
		if !ok {
			t.Fatal("Pop reported an empty list")
		}
		if n := ev.Payload.(int); n <= last[ev.At] {
			t.Fatalf("event %d at %v popped after event %d of the same instant", n, ev.At, last[ev.At])
		} else {
			last[ev.At] = n
		}
	}
	for i := 0; i < 2000; i++ {
		pushed++
		l.Push(time.Duration(rng.Intn(5))*time.Second, pushed)
		if rng.Intn(3) == 0 {
			pop()
		}
	}
	for len(l.h) > 0 {
		pop()
	}
}

// Events are held by value: once the heap array has grown, pushing and
// popping allocate nothing.
func TestEventListZeroAllocs(t *testing.T) {
	var l EventList
	payload := any(&l) // a pointer boxes without allocating, as the engine's *query.Query does
	for i := 0; i < 64; i++ {
		l.Push(time.Duration(i%7), payload)
	}
	at := time.Duration(0)
	if n := testing.AllocsPerRun(1000, func() {
		at++
		l.Push(at%13, payload)
		l.Push(at%5, payload)
		l.Pop()
		l.Pop()
	}); n != 0 {
		t.Fatalf("steady-state push/pop allocates %v objects per round, want 0", n)
	}
}
