// Package jobgraph implements JAWS's job-aware gated execution (§IV): a
// precedence graph over the queries of ordered jobs, augmented with gating
// edges that synchronize the execution of queries from different jobs so
// that queries accessing the same data are co-scheduled and their I/O is
// shared.
//
// The pipeline has three phases, as in the paper:
//
//  1. a Needleman–Wunsch dynamic program finds, for every pair of jobs,
//     the maximal non-crossing alignment of queries that exhibit data
//     sharing (each alignment is a candidate gating edge);
//  2. gating numbers — the minimum number of gating edges the scheduler
//     must evaluate before a query can be scheduled — are computed by a
//     pass over the jobs in execution order;
//  3. a greedy merge admits pairwise edges into the global graph,
//     rejecting edges that would deadlock the schedule or violate
//     precedence constraints (Fig. 4).
package jobgraph

import "slices"

// Pair is one aligned query pair from the dynamic program: query SeqA of
// job A is co-scheduled with query SeqB of job B.
type Pair struct {
	SeqA, SeqB int
}

// Aligner runs the Needleman–Wunsch global alignment of §IV.B
// incrementally, one row (one query of job A) at a time, against a fixed
// job B. Because each new row depends only on the previous one, extending
// the alignment with a further query never recomputes earlier rows — this
// is the append-row update the incremental merge path uses, and it lets
// the graph admit a job against the already-admitted run without
// re-running any pairwise DP from scratch. The DP matrix and the share
// bits are kept in flat reusable arenas, so repeated alignments allocate
// nothing.
//
// The zero Aligner is ready for use: call Begin, then AppendRow for each
// query of job A in sequence order, then Pairs.
type Aligner struct {
	lenB   int
	stride int      // words per row of sh
	rows   int      // rows appended so far (queries of job A)
	m      []int32  // (rows+1)×(lenB+1) score matrix, row-major, borders included
	sh     []uint64 // rows×stride share bits, kept for the traceback
}

// Begin starts a fresh alignment against a job of lenB queries, reusing
// the internal arenas.
func (al *Aligner) Begin(lenB int) {
	al.lenB = lenB
	al.stride = (lenB + 63) >> 6
	al.rows = 0
	al.m = slices.Grow(al.m[:0], lenB+1)[:lenB+1]
	clear(al.m)
	al.sh = al.sh[:0]
}

// AppendRow extends the alignment with the next query of job A. Bit j of
// row (bit j&63 of word j>>6; at least lenB bits) says whether that query
// and query j of job B exhibit data sharing (score 1); skipping a query
// costs nothing (gap penalty 0), as in the paper. The row is copied.
func (al *Aligner) AppendRow(row []uint64) {
	row = row[:al.stride]
	al.sh = append(al.sh, row...)
	i := al.rows + 1
	w := al.lenB + 1
	al.m = slices.Grow(al.m, w)[:(i+1)*w]
	prev := al.m[(i-1)*w : i*w]
	cur := al.m[i*w : (i+1)*w]
	cur[0] = 0
	for j := 1; j <= al.lenB; j++ {
		best := prev[j-1] + int32(row[(j-1)>>6]>>((j-1)&63)&1)
		if prev[j] > best {
			best = prev[j]
		}
		if cur[j-1] > best {
			best = cur[j-1]
		}
		cur[j] = best
	}
	al.rows = i
}

// Pairs runs the traceback over the accumulated rows and appends the
// aligned sharing pairs to buf in increasing sequence order. By
// construction the pairs are non-crossing and each query appears in at
// most one pair — exactly the feasibility conditions for gating edges
// between one pair of jobs.
func (al *Aligner) Pairs(buf []Pair) []Pair {
	w := al.lenB + 1
	first := len(buf)
	// Traceback, preferring matched diagonals so every unit of score
	// becomes a gating edge.
	i, j := al.rows, al.lenB
	for i > 0 && j > 0 {
		shared := al.sh[(i-1)*al.stride+(j-1)>>6]>>((j-1)&63)&1 == 1
		switch {
		case shared && al.m[i*w+j] == al.m[(i-1)*w+(j-1)]+1:
			buf = append(buf, Pair{SeqA: i - 1, SeqB: j - 1})
			i--
			j--
		case al.m[i*w+j] == al.m[(i-1)*w+j]:
			i--
		case al.m[i*w+j] == al.m[i*w+(j-1)]:
			j--
		default: // unmatched diagonal (no sharing, equal scores)
			i--
			j--
		}
	}
	slices.Reverse(buf[first:])
	return buf
}
