package fault

import (
	"errors"
	"testing"
	"time"
)

func TestNilInjectorIsDisabled(t *testing.T) {
	var in *Injector
	if extra, err := in.DiskRead(0); extra != 0 || err != nil {
		t.Fatal("nil injector injected a disk fault")
	}
	if in.CorruptHit(0) {
		t.Fatal("nil injector corrupted a hit")
	}
	if _, ok := in.CrashAt(); ok {
		t.Fatal("nil injector scheduled a crash")
	}
	if in.Counts() != (Counts{}) || in.Node() != 0 {
		t.Fatal("nil injector has state")
	}
}

func TestNewDropsForeignRules(t *testing.T) {
	spec, err := ParseSpec("crash@1:at=5s;disk-transient@1:p=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if in := New(spec, 7, 0); in != nil {
		t.Fatal("node 0 got node 1's rules")
	}
	in := New(spec, 7, 1)
	if in == nil {
		t.Fatal("node 1 lost its rules")
	}
	if at, ok := in.CrashAt(); !ok || at != 5*time.Second {
		t.Fatalf("CrashAt = %v, %v", at, ok)
	}
}

func TestEarliestCrashWins(t *testing.T) {
	spec, _ := ParseSpec("crash:at=9s;crash:at=3s;crash:at=6s")
	in := New(spec, 1, 0)
	if at, ok := in.CrashAt(); !ok || at != 3*time.Second {
		t.Fatalf("CrashAt = %v, %v; want 3s", at, ok)
	}
}

func TestDiskFaultKindsAndWindows(t *testing.T) {
	spec, err := ParseSpec("disk-transient:p=1,until=10s,extra=2ms;disk-permanent:p=1,after=10s")
	if err != nil {
		t.Fatal(err)
	}
	in := New(spec, 42, 0)
	extra, err := in.DiskRead(time.Second)
	if !IsTransient(err) {
		t.Fatalf("inside window: err = %v, want transient", err)
	}
	if extra != 2*time.Millisecond {
		t.Fatalf("detection latency = %v, want 2ms", extra)
	}

	_, err = in.DiskRead(20 * time.Second) // transient window closed, permanent open
	if !errors.Is(err, ErrDiskPermanent) || IsTransient(err) {
		t.Fatalf("after window: err = %v, want permanent", err)
	}
	c := in.Counts()
	if c.Transient != 1 || c.Permanent != 1 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestDiskSlowAccumulates(t *testing.T) {
	spec, _ := ParseSpec("disk-slow:p=1,extra=50ms")
	in := New(spec, 3, 0)
	extra, err := in.DiskRead(0)
	if err != nil || extra != 50*time.Millisecond {
		t.Fatalf("DiskRead = %v, %v; want 50ms spike", extra, err)
	}
	if in.Counts().Slow != 1 {
		t.Fatalf("counts = %+v", in.Counts())
	}
}

func TestCorruptHit(t *testing.T) {
	spec, _ := ParseSpec("corrupt:p=1")
	in := New(spec, 5, 0)
	if !in.CorruptHit(0) {
		t.Fatal("p=1 corruption did not fire")
	}
	if in.Counts().Corrupt != 1 {
		t.Fatalf("counts = %+v", in.Counts())
	}
	// Outside the window nothing fires.
	spec, _ = ParseSpec("corrupt:p=1,after=10s")
	in = New(spec, 5, 0)
	if in.CorruptHit(time.Second) {
		t.Fatal("corruption fired before its window")
	}
}

// TestDeterministicReplay is the injector-level core of the chaos
// harness's replay guarantee: the same (spec, seed, node) makes the same
// decisions for the same operation sequence.
func TestDeterministicReplay(t *testing.T) {
	spec, err := ParseSpec("disk-transient:p=0.3;disk-slow:p=0.2,extra=10ms;corrupt:p=0.1")
	if err != nil {
		t.Fatal(err)
	}
	type decision struct {
		extra   time.Duration
		err     error
		corrupt bool
	}
	replay := func(seed int64, node int) []decision {
		in := New(spec, seed, node)
		var out []decision
		for i := 0; i < 500; i++ {
			var d decision
			d.extra, d.err = in.DiskRead(time.Duration(i) * time.Millisecond)
			d.corrupt = in.CorruptHit(time.Duration(i) * time.Millisecond)
			out = append(out, d)
		}
		return out
	}
	a, b := replay(99, 2), replay(99, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at op %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// A different node draws a different stream.
	c := replay(99, 3)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("nodes 2 and 3 drew identical fault streams")
	}
}

func TestNodeCrashError(t *testing.T) {
	err := error(&NodeCrashError{Node: 3, At: 2 * time.Second})
	var nce *NodeCrashError
	if !errors.As(err, &nce) || nce.Node != 3 {
		t.Fatalf("errors.As failed on %v", err)
	}
	if err.Error() == "" {
		t.Fatal("empty crash message")
	}
}
