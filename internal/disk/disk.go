// Package disk simulates the storage subsystem of the Turbulence cluster
// node used in the paper's evaluation: data tables striped across a set of
// four disks in RAID-5 (§VI), with a seek+rotate+transfer cost model.
//
// The simulator returns the virtual-time cost of each read so the
// execution engine can charge it to the virtual clock; it never touches
// real storage. Sequential-run detection rewards Morton-ordered batch
// reads with seek-free transfers, reproducing the I/O behaviour that makes
// data-driven batching profitable.
package disk

import (
	"fmt"
	"sync"
	"time"
)

// Params describe one spindle.
type Params struct {
	// SeekTime is the average cost of a non-sequential repositioning.
	SeekTime time.Duration
	// RotationalLatency is the average half-rotation wait added to seeks.
	RotationalLatency time.Duration
	// TransferRate is the sustained bandwidth in bytes per second.
	TransferRate float64
}

// DefaultParams models a mid-2000s SATA spindle of the kind in the
// evaluation testbed (~8.5 ms seek, 7200 rpm, ~70 MB/s sustained).
func DefaultParams() Params {
	return Params{
		SeekTime:          8500 * time.Microsecond,
		RotationalLatency: 4160 * time.Microsecond, // half of 8.33 ms per rev
		TransferRate:      70e6,
	}
}

// Array is a striped array of identical simulated disks. Reads are mapped
// to spindles by logical block address; RAID-5 parity costs are ignored
// for reads (parity only matters for writes, and the workload is
// read-only), so the array behaves as a 4-way stripe for bandwidth.
type Array struct {
	mu      sync.Mutex
	params  Params
	n       int
	lastEnd []int64 // per-spindle last byte address read, -1 = cold

	stats    Stats
	observer func(addr, size int64, seq bool, cost time.Duration)
}

// Stats accumulates I/O accounting for an Array.
type Stats struct {
	Reads       int64         // read operations issued
	SeqReads    int64         // reads that continued a sequential run
	Bytes       int64         // bytes transferred
	BusyTime    time.Duration // total virtual time spent in I/O
	SeekTime    time.Duration // virtual time spent seeking
	TransferDur time.Duration // virtual time spent transferring
}

// NewArray creates an array of n spindles with the given per-disk
// parameters. n must be positive.
func NewArray(n int, p Params) *Array {
	if n <= 0 {
		panic(fmt.Sprintf("disk: array needs at least one spindle, got %d", n))
	}
	if p.TransferRate <= 0 {
		panic("disk: transfer rate must be positive")
	}
	last := make([]int64, n)
	for i := range last {
		last[i] = -1
	}
	return &Array{params: p, n: n, lastEnd: last}
}

// StripeUnit is the RAID stripe chunk size in bytes.
const StripeUnit = 256 << 10

// Read simulates reading size bytes starting at logical address addr and
// returns the virtual-time cost. A read that begins exactly where the
// spindle's previous read ended skips the seek (a sequential run); any
// other read pays seek plus rotational latency.
func (a *Array) Read(addr int64, size int64) time.Duration {
	if size <= 0 {
		return 0
	}
	a.mu.Lock()

	// Which spindle owns the first stripe unit of this extent. Large atom
	// reads span all spindles; we model the dominant spindle's seek and
	// divide transfer bandwidth across the stripe width.
	spindle := int((addr / StripeUnit) % int64(a.n))

	var seek time.Duration
	seq := a.lastEnd[spindle] == addr
	if seq {
		a.stats.SeqReads++
	} else {
		seek = a.params.SeekTime + a.params.RotationalLatency
	}
	a.lastEnd[spindle] = addr + size

	aggregate := a.params.TransferRate * float64(a.n)
	transfer := time.Duration(float64(size) / aggregate * float64(time.Second))

	a.stats.Reads++
	a.stats.Bytes += size
	a.stats.SeekTime += seek
	a.stats.TransferDur += transfer
	a.stats.BusyTime += seek + transfer
	observer := a.observer
	a.mu.Unlock()

	if observer != nil {
		observer(addr, size, seq, seek+transfer)
	}
	return seek + transfer
}

// SetObserver registers fn to be called after every read with the extent,
// whether it continued a sequential run, and the charged virtual-time
// cost. The hook runs outside the array lock; nil disables it.
func (a *Array) SetObserver(fn func(addr, size int64, seq bool, cost time.Duration)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.observer = fn
}

// Snapshot returns a copy of the accumulated statistics.
func (a *Array) Snapshot() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// ResetStats clears the accumulated statistics (spindle head positions are
// kept; the data layout does not change between experiment phases).
func (a *Array) ResetStats() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats = Stats{}
}
