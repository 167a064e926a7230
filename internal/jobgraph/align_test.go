package jobgraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// shareFromRegions builds a share function from per-query region labels:
// queries share data iff they carry the same label (the simplification of
// Fig. 2, where node values denote the data region accessed).
func shareFromRegions(a, b []int) func(i, j int) bool {
	return func(i, j int) bool { return a[i] == b[j] }
}

// align runs the full Needleman–Wunsch alignment between two jobs of lenA
// and lenB queries in one call, driving Aligner's append-row interface
// the way the graph does row by row. share(i, j) reports whether query i
// of job A and query j of job B exhibit data sharing.
func align(lenA, lenB int, share func(i, j int) bool) []Pair {
	return alignWith(new(Aligner), lenA, lenB, share)
}

// alignWith is align on a caller's Aligner, whose arenas it reuses.
func alignWith(al *Aligner, lenA, lenB int, share func(i, j int) bool) []Pair {
	if lenA == 0 || lenB == 0 {
		return nil
	}
	al.Begin(lenB)
	row := make([]uint64, al.stride)
	for i := 0; i < lenA; i++ {
		clear(row)
		for j := 0; j < lenB; j++ {
			if share(i, j) {
				row[j>>6] |= 1 << (j & 63)
			}
		}
		al.AppendRow(row)
	}
	return al.Pairs(nil)
}

func TestAlignEmpty(t *testing.T) {
	if got := align(0, 5, func(int, int) bool { return true }); got != nil {
		t.Fatalf("alignment of empty job = %v", got)
	}
	if got := align(5, 0, func(int, int) bool { return true }); got != nil {
		t.Fatalf("alignment with empty job = %v", got)
	}
}

func TestAlignIdenticalJobs(t *testing.T) {
	a := []int{1, 2, 3, 4}
	pairs := align(4, 4, shareFromRegions(a, a))
	if len(pairs) != 4 {
		t.Fatalf("identical jobs aligned %d pairs, want 4", len(pairs))
	}
	for i, p := range pairs {
		if p.SeqA != i || p.SeqB != i {
			t.Fatalf("pair %d = %+v, want diagonal", i, p)
		}
	}
}

func TestAlignNoSharing(t *testing.T) {
	pairs := align(3, 3, shareFromRegions([]int{1, 2, 3}, []int{4, 5, 6}))
	if len(pairs) != 0 {
		t.Fatalf("disjoint jobs aligned %d pairs", len(pairs))
	}
}

func TestAlignWithGaps(t *testing.T) {
	// Job A: R1 R2 R3; Job B: R1 R9 R9 R3. Optimal: align R1 and R3,
	// skipping B's middle queries.
	a := []int{1, 2, 3}
	b := []int{1, 9, 9, 3}
	pairs := align(len(a), len(b), shareFromRegions(a, b))
	if len(pairs) != 2 {
		t.Fatalf("got %d pairs, want 2: %v", len(pairs), pairs)
	}
	if pairs[0] != (Pair{SeqA: 0, SeqB: 0}) || pairs[1] != (Pair{SeqA: 2, SeqB: 3}) {
		t.Fatalf("pairs = %v", pairs)
	}
}

func TestAlignPrefersMoreEdges(t *testing.T) {
	// A crossing would allow only one edge; the DP must find the
	// non-crossing subset of maximum size.
	// Job A: R1 R2; Job B: R2 R1 R2. Best: A0-B1? crossing with A1-B0...
	// Options: {A0↔B1} + {A1↔B2} (non-crossing, 2 edges).
	a := []int{1, 2}
	b := []int{2, 1, 2}
	pairs := align(len(a), len(b), shareFromRegions(a, b))
	if len(pairs) != 2 {
		t.Fatalf("got %v, want two non-crossing edges", pairs)
	}
}

func TestAlignFigure2Scenario(t *testing.T) {
	// Figure 2's jobs (values = data regions): three jobs where JAWS
	// aligns R3 and R4 accesses. Pairwise alignment of j1 = [R1 R2 R3 R4]
	// and j2 = [R3 R4] must match both queries of j2.
	j1 := []int{1, 2, 3, 4}
	j2 := []int{3, 4}
	pairs := align(len(j1), len(j2), shareFromRegions(j1, j2))
	if len(pairs) != 2 {
		t.Fatalf("got %v, want R3 and R4 aligned", pairs)
	}
	if pairs[0] != (Pair{SeqA: 2, SeqB: 0}) || pairs[1] != (Pair{SeqA: 3, SeqB: 1}) {
		t.Fatalf("pairs = %v", pairs)
	}
}

// Property: alignments are feasible gating-edge sets — strictly increasing
// in both sequences (non-crossing, at most one edge per query) and every
// pair actually shares data.
func TestAlignFeasibilityProperty(t *testing.T) {
	f := func(aRaw, bRaw []uint8) bool {
		a := make([]int, len(aRaw))
		for i, v := range aRaw {
			a[i] = int(v % 8)
		}
		b := make([]int, len(bRaw))
		for i, v := range bRaw {
			b[i] = int(v % 8)
		}
		share := shareFromRegions(a, b)
		pairs := align(len(a), len(b), share)
		prevA, prevB := -1, -1
		for _, p := range pairs {
			if p.SeqA <= prevA || p.SeqB <= prevB {
				return false
			}
			if !share(p.SeqA, p.SeqB) {
				return false
			}
			prevA, prevB = p.SeqA, p.SeqB
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the DP is optimal — for small inputs, its edge count matches a
// brute-force maximum non-crossing matching.
func TestAlignOptimalityAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n, m := rng.Intn(6)+1, rng.Intn(6)+1
		a := make([]int, n)
		b := make([]int, m)
		for i := range a {
			a[i] = rng.Intn(4)
		}
		for i := range b {
			b[i] = rng.Intn(4)
		}
		share := shareFromRegions(a, b)
		got := len(align(n, m, share))
		want := bruteMaxMatching(n, m, share)
		if got != want {
			t.Fatalf("trial %d: DP found %d edges, brute force %d (a=%v b=%v)", trial, got, want, a, b)
		}
	}
}

// bruteMaxMatching enumerates all non-crossing matchings recursively.
func bruteMaxMatching(n, m int, share func(i, j int) bool) int {
	var rec func(i, j int) int
	memo := make(map[[2]int]int)
	rec = func(i, j int) int {
		if i >= n || j >= m {
			return 0
		}
		key := [2]int{i, j}
		if v, ok := memo[key]; ok {
			return v
		}
		best := rec(i+1, j)
		if v := rec(i, j+1); v > best {
			best = v
		}
		if share(i, j) {
			if v := 1 + rec(i+1, j+1); v > best {
				best = v
			}
		}
		memo[key] = best
		return best
	}
	return rec(0, 0)
}

func BenchmarkAlign100x100(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	a := make([]int, 100)
	c := make([]int, 100)
	for i := range a {
		a[i] = rng.Intn(20)
		c[i] = rng.Intn(20)
	}
	share := shareFromRegions(a, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		align(100, 100, share)
	}
}

// The same alignment as the graph runs it: rows of share bits, the
// aligner's arenas and the pair buffer reused.
func BenchmarkAlign100x100BitRows(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	rows := make([][]uint64, 100)
	for i := range rows {
		rows[i] = make([]uint64, 2)
		for j := 0; j < 100; j++ {
			if rng.Intn(20) == 0 {
				rows[i][j>>6] |= 1 << (j & 63)
			}
		}
	}
	var al Aligner
	var pairs []Pair
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al.Begin(100)
		for _, row := range rows {
			al.AppendRow(row)
		}
		pairs = al.Pairs(pairs[:0])
	}
}
