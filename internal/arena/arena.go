// Package arena carves runs of records out of chunks (DESIGN.md §7). One
// owner — the job graph, the engine, the scheduler's atom queues — keeps
// an arena per record type; the chunks die with the owner and the runs
// carved from them.
package arena

import "unsafe"

// Chunk sizes double from minChunk up to maxChunk bytes, so that an owner
// that carves a handful of runs, such as a quiet session's, holds almost
// nothing extra, and a busy one pays an allocation per 16 KiB.
const (
	minChunk = 1 << 10
	maxChunk = 16 << 10
)

// Arena carves zeroed, capped runs out of chunks. It holds only the chunk
// it is carving from: a run keeps its own chunk alive, and a chunk is
// collected once nothing holds a run of it. A run is handed out once and
// never taken back, so whoever abandons one that holds pointers clears it
// first: a dead run pins what it points at as long as its chunk lives. The
// zero value is ready to use.
type Arena[T any] struct{ chunk []T }

// Alloc returns n zeroed records with room for c ≥ n, s[lo:lo+n:lo+c] of
// the chunk in hand or of a new one when the room left is too small. A run
// larger than a full chunk gets an array of its own.
func (a *Arena[T]) Alloc(n, c int) []T {
	if c > cap(a.chunk)-len(a.chunk) {
		size := int(unsafe.Sizeof(*new(T)))
		limit := maxChunk / size
		if c > limit {
			return make([]T, n, c)
		}
		a.chunk = make([]T, 0, min(limit, max(2*cap(a.chunk), minChunk/size, c)))
	}
	lo := len(a.chunk)
	a.chunk = a.chunk[:lo+c]
	return a.chunk[lo : lo+n : lo+c]
}
