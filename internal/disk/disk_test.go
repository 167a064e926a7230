package disk

import (
	"testing"
	"testing/quick"
	"time"
)

func testParams() Params {
	return Params{
		SeekTime:          8 * time.Millisecond,
		RotationalLatency: 4 * time.Millisecond,
		TransferRate:      100e6, // 100 MB/s per spindle
	}
}

func TestNewArrayValidation(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewArray(%d) did not panic", n)
				}
			}()
			NewArray(n, testParams())
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero transfer rate did not panic")
			}
		}()
		NewArray(1, Params{})
	}()
}

func TestColdReadPaysSeek(t *testing.T) {
	a := NewArray(1, testParams())
	cost := a.Read(0, 100e6) // 100 MB at 100 MB/s = 1 s transfer
	want := 12*time.Millisecond + time.Second
	if cost != want {
		t.Fatalf("cold read cost = %v, want %v", cost, want)
	}
}

func TestSequentialReadSkipsSeek(t *testing.T) {
	a := NewArray(1, testParams())
	a.Read(0, 1000)
	cost := a.Read(1000, 1000) // continues the run
	if cost >= 12*time.Millisecond {
		t.Fatalf("sequential read paid a seek: %v", cost)
	}
	s := a.Snapshot()
	if s.SeqReads != 1 {
		t.Fatalf("SeqReads = %d, want 1", s.SeqReads)
	}
}

func TestRandomReadPaysSeekEachTime(t *testing.T) {
	a := NewArray(1, testParams())
	a.Read(0, 1000)
	a.Read(1<<30, 1000)
	a.Read(0, 1000)
	s := a.Snapshot()
	if s.SeqReads != 0 {
		t.Fatalf("random pattern counted %d sequential reads", s.SeqReads)
	}
	if s.Reads != 3 {
		t.Fatalf("Reads = %d, want 3", s.Reads)
	}
}

func TestStripingSpreadsBandwidth(t *testing.T) {
	one := NewArray(1, testParams())
	four := NewArray(4, testParams())
	c1 := one.Read(0, 8<<20)
	c4 := four.Read(0, 8<<20)
	if c4 >= c1 {
		t.Fatalf("4-way stripe not faster: 1 disk %v vs 4 disks %v", c1, c4)
	}
	// Transfer portion should be ~4x faster; totals include equal seek.
	seek := 12 * time.Millisecond
	t1, t4 := c1-seek, c4-seek
	ratio := float64(t1) / float64(t4)
	if ratio < 3.9 || ratio > 4.1 {
		t.Fatalf("stripe speedup = %.2f, want ~4", ratio)
	}
}

func TestZeroSizeReadFree(t *testing.T) {
	a := NewArray(2, testParams())
	if c := a.Read(0, 0); c != 0 {
		t.Fatalf("zero-size read cost %v", c)
	}
	if s := a.Snapshot(); s.Reads != 0 {
		t.Fatalf("zero-size read counted: %+v", s)
	}
}

func TestStatsAccumulation(t *testing.T) {
	a := NewArray(2, testParams())
	a.Read(0, 1<<20)
	a.Read(StripeUnit, 1<<20) // different spindle
	s := a.Snapshot()
	if s.Reads != 2 || s.Bytes != 2<<20 {
		t.Fatalf("stats = %+v", s)
	}
	if s.BusyTime != s.SeekTime+s.TransferDur {
		t.Fatalf("BusyTime %v != seek %v + transfer %v", s.BusyTime, s.SeekTime, s.TransferDur)
	}
	a.ResetStats()
	if s := a.Snapshot(); s.Reads != 0 {
		t.Fatalf("ResetStats left %+v", s)
	}
}

func TestSpindleIndependence(t *testing.T) {
	// Sequential runs are tracked per spindle: interleaved reads on two
	// spindles can both be sequential.
	a := NewArray(2, testParams())
	a.Read(0, 100)              // spindle 0
	a.Read(StripeUnit, 100)     // spindle 1
	a.Read(100, 100)            // spindle 0, continues
	a.Read(StripeUnit+100, 100) // spindle 1, continues
	if s := a.Snapshot(); s.SeqReads != 2 {
		t.Fatalf("per-spindle sequential detection broken: SeqReads = %d, want 2", s.SeqReads)
	}
}

// Property: cost is monotone in size and always at least the pure
// transfer time.
func TestCostMonotoneInSize(t *testing.T) {
	a := NewArray(4, testParams())
	f := func(sz uint32) bool {
		size := int64(sz%10e6) + 1
		cost := a.Read(1<<40, size) // far address: always a seek
		transfer := time.Duration(float64(size) / (100e6 * 4) * float64(time.Second))
		return cost >= transfer && cost >= 12*time.Millisecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultParamsSane(t *testing.T) {
	p := DefaultParams()
	if p.SeekTime <= 0 || p.RotationalLatency <= 0 || p.TransferRate <= 0 {
		t.Fatalf("DefaultParams not positive: %+v", p)
	}
	// An 8 MB atom read on a cold 4-disk array should take tens of ms —
	// the T_b scale the paper's Eq. 1 assumes.
	a := NewArray(4, p)
	c := a.Read(0, 8<<20)
	if c < 10*time.Millisecond || c > 200*time.Millisecond {
		t.Fatalf("8 MB atom read cost %v outside plausible T_b range", c)
	}
}

func BenchmarkRead(b *testing.B) {
	a := NewArray(4, DefaultParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Read(int64(i)*(8<<20), 8<<20)
	}
}
