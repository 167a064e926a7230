package btree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intLess(a, b int) bool { return a < b }

func newInt(order int) *Tree[int, string] { return New[int, string](order, intLess) }

func TestEmptyTree(t *testing.T) {
	tr := newInt(0)
	if tr.size != 0 {
		t.Fatalf("empty tree Len = %d", tr.size)
	}
	if _, ok := tr.Get(1); ok {
		t.Fatal("Get on empty tree returned ok")
	}
	called := false
	tr.Scan(math.MinInt, math.MaxInt, func(int, string) bool { called = true; return true })
	if called {
		t.Fatal("Scan on empty tree visited a key")
	}
}

func TestPutGet(t *testing.T) {
	tr := newInt(4)
	for i := 0; i < 100; i++ {
		tr.Put(i, "v")
	}
	if tr.size != 100 {
		t.Fatalf("Len = %d, want 100", tr.size)
	}
	for i := 0; i < 100; i++ {
		if _, ok := tr.Get(i); !ok {
			t.Fatalf("Get(%d) missing", i)
		}
	}
	if _, ok := tr.Get(100); ok {
		t.Fatal("Get(100) present, never inserted")
	}
}

func TestPutReplace(t *testing.T) {
	tr := newInt(4)
	tr.Put(7, "a")
	tr.Put(7, "b")
	if tr.size != 1 {
		t.Fatalf("replace changed Len to %d", tr.size)
	}
	if v, _ := tr.Get(7); v != "b" {
		t.Fatalf("Get(7) = %q, want b", v)
	}
}

func TestSplitGrowsHeight(t *testing.T) {
	tr := newInt(3)
	h := tr.height
	for i := 0; i < 50; i++ {
		tr.Put(i, "v")
	}
	if tr.height <= h {
		t.Fatalf("tree never grew: height %d", tr.height)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestScanRange(t *testing.T) {
	tr := newInt(4)
	for i := 0; i < 100; i += 2 { // evens only
		tr.Put(i, "v")
	}
	var got []int
	tr.Scan(10, 30, func(k int, _ string) bool {
		got = append(got, k)
		return true
	})
	want := []int{10, 12, 14, 16, 18, 20, 22, 24, 26, 28}
	if len(got) != len(want) {
		t.Fatalf("Scan got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Scan got %v, want %v", got, want)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr := newInt(4)
	for i := 0; i < 100; i++ {
		tr.Put(i, "v")
	}
	n := 0
	tr.Scan(0, 100, func(int, string) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop visited %d keys, want 5", n)
	}
}

func TestScanEmptyRange(t *testing.T) {
	tr := newInt(4)
	for i := 0; i < 10; i++ {
		tr.Put(i, "v")
	}
	n := 0
	tr.Scan(5, 5, func(int, string) bool { n++; return true })
	if n != 0 {
		t.Fatalf("empty range visited %d keys", n)
	}
}

func TestMin(t *testing.T) {
	tr := newInt(4)
	for _, k := range []int{42, 7, 99, 13} {
		tr.Put(k, "v")
	}
	min, ok := 0, false
	tr.Scan(math.MinInt, math.MaxInt, func(k int, _ string) bool { min, ok = k, true; return false })
	if !ok || min != 7 {
		t.Fatalf("a scan from the bottom starts at %d/%v, want 7/true", min, ok)
	}
}

func TestAscendSorted(t *testing.T) {
	tr := newInt(5)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		tr.Put(rng.Intn(500), "v")
	}
	var keys []int
	tr.Scan(math.MinInt, math.MaxInt, func(k int, _ string) bool { keys = append(keys, k); return true })
	if !sort.IntsAreSorted(keys) {
		t.Fatal("full Scan not sorted")
	}
	if len(keys) != tr.size {
		t.Fatalf("full Scan visited %d keys, size = %d", len(keys), tr.size)
	}
}

// Property: the tree behaves identically to a reference map for any
// sequence of insertions, at several branching orders including ones that
// force deep trees.
func TestAgainstReferenceModel(t *testing.T) {
	for _, order := range []int{3, 4, 8, 64} {
		f := func(keys []int16) bool {
			tr := New[int, int](order, intLess)
			ref := map[int]int{}
			for i, k16 := range keys {
				k := int(k16)
				tr.Put(k, i)
				ref[k] = i
			}
			if tr.size != len(ref) {
				return false
			}
			for k, v := range ref {
				got, ok := tr.Get(k)
				if !ok || got != v {
					return false
				}
			}
			// A full scan equals the sorted reference keys.
			var want []int
			for k := range ref {
				want = append(want, k)
			}
			sort.Ints(want)
			i := 0
			good := true
			tr.Scan(math.MinInt, math.MaxInt, func(k int, _ int) bool {
				if i >= len(want) || k != want[i] {
					good = false
					return false
				}
				i++
				return true
			})
			return good && i == len(want) && tr.CheckInvariants() == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("order %d: %v", order, err)
		}
	}
}

// Property: Scan(lo,hi) returns exactly the reference keys in [lo,hi).
func TestScanAgainstReference(t *testing.T) {
	f := func(keys []int16, lo16, hi16 int16) bool {
		lo, hi := int(lo16), int(hi16)
		if lo > hi {
			lo, hi = hi, lo
		}
		tr := New[int, int](4, intLess)
		ref := map[int]bool{}
		for _, k16 := range keys {
			tr.Put(int(k16), 0)
			ref[int(k16)] = true
		}
		var want []int
		for k := range ref {
			if k >= lo && k < hi {
				want = append(want, k)
			}
		}
		sort.Ints(want)
		var got []int
		tr.Scan(lo, hi, func(k int, _ int) bool { got = append(got, k); return true })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCompositeKey(t *testing.T) {
	// The store keys atoms on (step, morton) packed into a uint64, like
	// the clustered index in §III.A. Verify ordering by step then code.
	type entry struct{ step, code uint32 }
	key := func(e entry) uint64 { return uint64(e.step)<<32 | uint64(e.code) }
	tr := New[uint64, entry](8, func(a, b uint64) bool { return a < b })
	entries := []entry{{2, 1}, {1, 5}, {1, 2}, {0, 9}, {2, 0}}
	for _, e := range entries {
		tr.Put(key(e), e)
	}
	var got []entry
	tr.Scan(0, math.MaxUint64, func(_ uint64, e entry) bool { got = append(got, e); return true })
	want := []entry{{0, 9}, {1, 2}, {1, 5}, {2, 0}, {2, 1}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("composite ordering got %v, want %v", got, want)
		}
	}
	// Range scan of step 1 only.
	var step1 []entry
	tr.Scan(uint64(1)<<32, uint64(2)<<32, func(_ uint64, e entry) bool {
		step1 = append(step1, e)
		return true
	})
	if len(step1) != 2 || step1[0].step != 1 || step1[1].step != 1 {
		t.Fatalf("step-1 scan = %v", step1)
	}
}

func BenchmarkPut(b *testing.B) {
	tr := New[uint64, int](64, func(a, b uint64) bool { return a < b })
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Put(rng.Uint64(), i)
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New[uint64, int](64, func(a, b uint64) bool { return a < b })
	for i := 0; i < 1<<16; i++ {
		tr.Put(uint64(i)*2654435761, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(uint64(i%(1<<16)) * 2654435761)
	}
}
