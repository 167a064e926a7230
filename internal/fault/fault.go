// Package fault is the deterministic fault model of the simulated
// Turbulence cluster: a seeded injector that imposes transient and
// permanent disk read errors, latency spikes, cache corruption (checksum
// mismatch on atom payloads) and whole-node crashes at chosen virtual
// times.
//
// Determinism contract: given the same Spec, seed and node index, an
// injector driven by the same sequence of operations at the same virtual
// times makes exactly the same decisions. All randomness comes from one
// seeded generator consumed in operation order, and all time windows are
// evaluated against the virtual time the engine passes with each
// operation — never wall time — so a run with faults replays bit-for-bit.
//
// Zero-overhead-when-disabled contract (mirroring internal/obs): every
// method on *Injector is nil-safe. Hot paths hold a possibly-nil pointer
// and pay one nil check when fault injection is off.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Sentinel errors injected into the storage path. The engine retries
// reads failing with ErrDiskTransient and aborts on ErrDiskPermanent.
var (
	ErrDiskTransient = errors.New("transient disk read error (injected)")
	ErrDiskPermanent = errors.New("permanent disk read error (injected)")
)

// IsTransient reports whether err is a retryable injected disk error.
func IsTransient(err error) bool { return errors.Is(err, ErrDiskTransient) }

// NodeCrashError is returned by an engine run whose node was crashed by
// the injector. The cluster layer uses it to trigger failover.
type NodeCrashError struct {
	Node int
	At   time.Duration // virtual time of death
}

// Error renders the crash.
func (e *NodeCrashError) Error() string {
	return fmt.Sprintf("fault: node %d crashed at virtual time %v", e.Node, e.At)
}

// Counts tallies the faults an injector actually imposed.
type Counts struct {
	Transient int64 // transient disk errors injected
	Permanent int64 // permanent disk errors injected
	Slow      int64 // latency spikes injected
	Corrupt   int64 // cache payloads corrupted
}

// Injector imposes the faults of a Spec on one node. Not safe for
// concurrent use: each node's engine owns its injector, matching the
// single-threaded discrete-event loop. A nil *Injector disables all
// injection.
type Injector struct {
	node   int
	rng    *rand.Rand
	disk   []Rule // DiskTransient / DiskPermanent / DiskSlow, in spec order
	hits   []Rule // CacheCorrupt rules, in spec order
	crash  time.Duration
	hasCr  bool
	counts Counts
}

// New builds the injector for one node of the cluster (node 0 for a
// single-node system). Rules targeting other nodes are dropped; if none
// remain, New returns nil so the disabled path stays a single nil check.
// The same (spec, seed, node) triple always yields an identical injector.
func New(spec Spec, seed int64, node int) *Injector {
	in := &Injector{node: node}
	for _, r := range spec.Rules {
		if r.Node >= 0 && r.Node != node {
			continue
		}
		switch r.Kind {
		case DiskTransient, DiskPermanent, DiskSlow:
			in.disk = append(in.disk, r)
		case CacheCorrupt:
			in.hits = append(in.hits, r)
		case Crash:
			if !in.hasCr || r.At < in.crash {
				in.crash, in.hasCr = r.At, true
			}
		}
	}
	if len(in.disk) == 0 && len(in.hits) == 0 && !in.hasCr {
		return nil
	}
	// Mix the node index into the seed (splitmix-style) so nodes draw
	// independent but reproducible streams.
	mixed := int64(uint64(seed) ^ (uint64(node)+1)*0x9e3779b97f4a7c15)
	in.rng = rand.New(rand.NewSource(mixed))
	return in
}

// Node reports which node this injector targets (0 for a nil injector).
func (in *Injector) Node() int {
	if in == nil {
		return 0
	}
	return in.node
}

// active reports whether the rule's [After, Until) window covers now.
func (r *Rule) active(now time.Duration) bool {
	if now < r.After {
		return false
	}
	return r.Until == 0 || now < r.Until
}

// DiskRead decides the fate of one disk read issued at virtual time now.
// It returns extra virtual latency to charge (an injected latency spike,
// or the failure-detection cost of an injected error) and the injected
// error, ErrDiskTransient or ErrDiskPermanent, if any. Nil-safe: a nil
// injector never injects.
func (in *Injector) DiskRead(now time.Duration) (time.Duration, error) {
	if in == nil || len(in.disk) == 0 {
		return 0, nil
	}
	var extra time.Duration
	for i := range in.disk {
		r := &in.disk[i]
		if !r.active(now) || in.rng.Float64() >= r.P {
			continue
		}
		switch r.Kind {
		case DiskTransient:
			in.counts.Transient++
			return extra + r.Extra, ErrDiskTransient
		case DiskPermanent:
			in.counts.Permanent++
			return extra + r.Extra, ErrDiskPermanent
		case DiskSlow:
			in.counts.Slow++
			extra += r.Extra
		}
	}
	return extra, nil
}

// CorruptHit decides whether a cache hit's payload fails its checksum at
// virtual time now. The engine drops a corrupted entry from the cache and
// re-reads the atom from disk. Nil-safe.
func (in *Injector) CorruptHit(now time.Duration) bool {
	if in == nil || len(in.hits) == 0 {
		return false
	}
	for i := range in.hits {
		r := &in.hits[i]
		if r.active(now) && in.rng.Float64() < r.P {
			in.counts.Corrupt++
			return true
		}
	}
	return false
}

// CrashAt returns the virtual time at which this node dies, if a crash is
// scheduled. Nil-safe: a nil injector never crashes.
func (in *Injector) CrashAt() (time.Duration, bool) {
	if in == nil {
		return 0, false
	}
	return in.crash, in.hasCr
}

// Counts returns the faults injected so far (zero for a nil injector).
func (in *Injector) Counts() Counts {
	if in == nil {
		return Counts{}
	}
	return in.counts
}
