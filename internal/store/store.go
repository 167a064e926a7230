// Package store is the simulated Turbulence database on one node: atoms
// laid out on a simulated disk array in (time step, Morton index) order.
// The paper finds an atom through a clustered B+-tree on that key
// (§III.A); here Morton codes are dense in [0, atoms per step), so the key's
// rank is the atom's place on disk and its extent is that rank × the
// nominal atom size, with no index to walk.
//
// Reading an atom charges the disk model the nominal 8 MB transfer and
// returns a frame: the atom's samples are synthesized from the
// deterministic field when something first evaluates on them (field.Atom),
// which costs wall time only — virtual time is charged here, in full.
// Caching is deliberately external (the paper manages its cache outside
// SQL Server); the store itself always goes to "disk".
package store

import (
	"fmt"
	"time"

	"jaws/internal/disk"
	"jaws/internal/field"
	"jaws/internal/geom"
	"jaws/internal/morton"
)

// AtomID identifies one storage block: a time step plus the Morton code of
// the atom's grid coordinates. It is the unit of I/O and of scheduling.
type AtomID struct {
	Step int
	Code morton.Code
}

// String renders the atom ID.
func (id AtomID) String() string {
	return fmt.Sprintf("t%d/%s", id.Step, geom.AtomFromCode(id.Code))
}

// Key packs the ID into one word, its sort key and the cache's index key, in
// the on-disk order: time step in the high bits so a whole step is one
// contiguous key range (and one contiguous disk extent), Morton code in the
// low keyCodeBits for spatial order within it. Every atom of a store Open
// accepts packs without loss (FromKey inverts it).
func (id AtomID) Key() uint64 {
	return uint64(id.Step)<<keyCodeBits | uint64(id.Code)
}

// FromKey inverts Key for every atom a store can hold: a step in
// [0, maxSteps) and a code below 2^keyCodeBits.
func FromKey(key uint64) AtomID {
	return AtomID{Step: int(key >> keyCodeBits), Code: morton.Code(key & (1<<keyCodeBits - 1))}
}

// The packing's bounds: a Key holds the Morton code of up to
// maxAtomsPerAxis atoms per axis in its low 42 bits and the step, below
// maxSteps, in the 20 above them. Open refuses a geometry past either.
const (
	keyCodeBits     = 42
	maxAtomsPerAxis = 1 << (keyCodeBits / 3)
	maxSteps        = 1 << 20
)

// Config parameterizes a store.
type Config struct {
	Space geom.Space
	// Steps is the number of stored time steps (31 in the paper's 800 GB
	// evaluation sample, 1024 in production).
	Steps int
	// SampleSide is the per-axis sample resolution atoms are materialized
	// at in memory (the disk model still charges the nominal 8 MB).
	SampleSide int
	// SampleGhost is the replication halo in samples on each side of the
	// atom (§III.A stores four voxels of replication); 0 disables.
	SampleGhost int
	// Seed drives the synthetic field.
	Seed int64
}

// disks is the stripe width of the simulated array: the paper's 4.
const disks = 4

// Store is a single-node atom database.
type Store struct {
	cfg   Config
	field *field.Field
	array *disk.Array
	per   int64 // atoms per step
}

// Open builds the store.
func Open(cfg Config) (*Store, error) {
	if err := cfg.Space.Validate(); err != nil {
		return nil, err
	}
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("store: need at least one time step, got %d", cfg.Steps)
	}
	if cfg.Steps >= maxSteps {
		return nil, fmt.Errorf("store: %d time steps do not fit an atom key, want fewer than %d", cfg.Steps, maxSteps)
	}
	if n := cfg.Space.AtomsPerAxis(); n > maxAtomsPerAxis {
		return nil, fmt.Errorf("store: %d atoms per axis do not fit an atom key, want at most %d", n, maxAtomsPerAxis)
	}
	if cfg.SampleSide <= 0 {
		cfg.SampleSide = 8
	}
	return &Store{
		cfg:   cfg,
		field: field.New(cfg.Seed, 0, 0),
		array: disk.NewArray(disks, disk.DefaultParams()),
		per:   int64(cfg.Space.AtomsPerStep()),
	}, nil
}

// Space returns the store's geometry.
func (s *Store) Space() geom.Space { return s.cfg.Space }

// Field exposes the underlying synthetic field (ground truth for tests and
// for the example applications' correctness checks).
func (s *Store) Field() *field.Field { return s.field }

// Contains reports whether the atom exists in this store's partition.
func (s *Store) Contains(id AtomID) bool {
	return id.Step >= 0 && id.Step < s.cfg.Steps && uint64(id.Code) < uint64(s.per)
}

// Read fetches an atom from "disk": it charges the disk array for the
// transfer of the atom's extent. The returned duration is the
// simulated I/O cost to charge to the virtual clock. The atom is an
// unfilled frame on a handle of its own: its samples appear on first use,
// so an atom nothing evaluates on never has any. A caller that keeps the
// atom keeps it for good; one that gives it to an engine's cache holds a
// valid handle until the end of the decision in which the cache displaced
// it, after which the engine reads another atom into it (ReadInto).
func (s *Store) Read(id AtomID) (*field.Atom, time.Duration, error) {
	return s.ReadInto(id, nil)
}

// ReadInto is Read into frame, a handle nothing else may still hold, which
// it overwrites and returns (field.FrameInto); a nil frame is allocated. A
// failed read returns no atom and leaves frame as it was.
func (s *Store) ReadInto(id AtomID, frame *field.Atom) (*field.Atom, time.Duration, error) {
	if !s.Contains(id) {
		return nil, 0, fmt.Errorf("store: atom %v not in this partition", id)
	}
	// Atoms lie in (step, Morton) order: the atom grid side is a power of
	// two, so Morton codes are dense in [0, per), the layout has no holes and
	// Morton-adjacent atoms are disk-adjacent.
	addr := (int64(id.Step)*s.per + int64(id.Code)) * field.NominalAtomBytes
	cost := s.array.Read(addr, field.NominalAtomBytes)
	a := s.field.FrameInto(frame, id.Step, s.cfg.Space, geom.AtomFromCode(id.Code), s.cfg.SampleSide, s.cfg.SampleGhost)
	return a, cost, nil
}

// ScanStep calls fn for every atom of the given step in Morton order.
// A step the store does not hold visits nothing.
func (s *Store) ScanStep(step int, fn func(id AtomID) bool) {
	for id := (AtomID{Step: step}); s.Contains(id) && fn(id); id.Code++ {
	}
}

// SetIOObserver registers fn on the underlying disk array: it is called
// after every read with the extent, whether the read continued a
// sequential run, and the charged virtual-time cost. nil disables it.
func (s *Store) SetIOObserver(fn func(addr, size int64, seq bool, cost time.Duration)) {
	s.array.SetObserver(fn)
}

// DiskStats returns a snapshot of the disk array's counters.
func (s *Store) DiskStats() disk.Stats { return s.array.Snapshot() }

// ResetDiskStats clears the disk counters between experiment phases.
func (s *Store) ResetDiskStats() { s.array.ResetStats() }
