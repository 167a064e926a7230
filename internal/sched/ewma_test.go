package sched

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestEWMAPaperRecurrence(t *testing.T) {
	// rt'(i) = 0.2 rt(i) + 0.8 rt'(i-1), rt'(0) = rt(0).
	e := newEWMA(0.2)
	if got := e.observe(10); got != 10 {
		t.Fatalf("first observation = %g, want 10", got)
	}
	if got := e.observe(20); math.Abs(got-12) > 1e-12 {
		t.Fatalf("second observation = %g, want 12", got)
	}
	if math.Abs(e.value-12) > 1e-12 {
		t.Fatalf("value = %g", e.value)
	}
}

func TestEWMAValidation(t *testing.T) {
	for _, w := range []float64{0, -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("weight %g accepted", w)
				}
			}()
			newEWMA(w)
		}()
	}
}

// Property: EWMA output is always between min and max of inputs seen.
func TestEWMABounded(t *testing.T) {
	f := func(vals []float64) bool {
		e := newEWMA(0.2)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
			got := e.observe(v)
			if got < lo-1e-9*math.Abs(lo)-1e-12 || got > hi+1e-9*math.Abs(hi)+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the first observation passes through the EWMA unchanged,
// whatever the weight.
func TestEWMAFirstObservationPassthrough(t *testing.T) {
	f := func(v float64, w float64) bool {
		if math.IsNaN(v) {
			return true
		}
		w = math.Mod(math.Abs(w), 1)
		if w == 0 {
			w = 0.5
		}
		e := newEWMA(w)
		return e.observe(v) == v && e.value == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEWMAWeightPanicMessage(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("newEWMA(0) did not panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "EWMA weight must be in (0,1]") || !strings.Contains(msg, "0") {
			t.Fatalf("panic message %q does not name the constraint and value", msg)
		}
	}()
	newEWMA(0)
}
