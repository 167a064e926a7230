package arena

import "testing"

// Runs are zeroed, capped at their room and disjoint; chunks double from
// 1 KiB to 16 KiB, and a run larger than a full chunk gets an array of its
// own without disturbing the chunk in hand.
func TestAlloc(t *testing.T) {
	var a Arena[int64] // 8 B: 128 records in the first chunk, 2048 in a full one
	var chunks []int
	var runs [][]int64
	for range 1500 {
		r := a.Alloc(3, 5)
		if len(r) != 3 || cap(r) != 5 {
			t.Fatalf("run of len %d cap %d, want 3 and 5", len(r), cap(r))
		}
		if len(a.chunk) == cap(r) { // the run opened a chunk
			chunks = append(chunks, cap(a.chunk))
		}
		r = r[:cap(r)]
		for i, v := range r {
			if v != 0 {
				t.Fatal("a run is not zeroed")
			}
			r[i] = int64(len(runs))
		}
		runs = append(runs, r)
	}
	for i, r := range runs {
		for _, v := range r {
			if v != int64(i) {
				t.Fatalf("run %d was written by run %d: runs overlap", i, v)
			}
		}
	}
	want := []int{128, 256, 512, 1024, 2048}
	if len(chunks) < len(want)+1 || chunks[len(chunks)-1] != 2048 {
		t.Fatalf("chunks of %v records, want %v and then full ones", chunks, want)
	}
	for i, c := range want {
		if chunks[i] != c {
			t.Fatalf("chunks of %v records, want %v and then full ones", chunks, want)
		}
	}
	hand := len(a.chunk)
	if big := a.Alloc(2049, 2049); len(big) != 2049 || len(a.chunk) != hand {
		t.Fatalf("a run of 2049 records took %d from the chunk in hand", len(a.chunk)-hand)
	}
}
