// Package field synthesizes the turbulence data the simulated database
// stores: a time series of velocity + pressure fields on a structured
// grid, generated deterministically so any atom can be materialized on
// demand without keeping 27 TB on disk.
//
// Substitution note (see DESIGN.md): the paper's data comes from a direct
// numerical simulation of isotropic turbulence. Scheduling behaviour
// depends only on which atoms queries touch and on the I/O-to-compute
// ratio, not on flow physics, so we synthesize a divergence-free velocity
// field as a sum of random Fourier modes with a Kolmogorov-like energy
// spectrum (E(k) ~ k^-5/3) advected in time. The field is smooth, periodic,
// deterministic in (seed, step, position), and exercises the same
// interpolation kernels the real service offers (Lag4/Lag6/Lag8).
package field

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"

	"jaws/internal/geom"
)

// Components is the number of scalar fields per grid point: three velocity
// components plus pressure. With float64 samples a 64³ atom is exactly
// 64³·4·8 B = 8 MiB, matching the paper's atom size.
const Components = 4

// Mode is one Fourier mode of the synthetic field.
type mode struct {
	k     [3]float64 // wavevector (integer lattice)
	a     [3]float64 // velocity amplitude vector, perpendicular to k
	p     float64    // pressure amplitude
	ph    float64    // phase
	omega float64    // temporal frequency
}

// Field is a deterministic synthetic turbulence field.
type Field struct {
	modes []mode
	dt    float64 // simulation time per database time step

	mu   sync.Mutex
	geos []*Geometry // the geometries resolved on the field, one per shape
}

// New builds a synthetic field with nModes Fourier modes drawn from the
// given seed. dt is the physical time between stored time steps (the paper
// stores 1024 steps over 2 s, so dt ≈ 2 ms).
func New(seed int64, nModes int, dt float64) *Field {
	if nModes <= 0 {
		nModes = 48
	}
	if dt <= 0 {
		dt = 2.0 / 1024
	}
	rng := rand.New(rand.NewSource(seed))
	f := &Field{dt: dt, modes: make([]mode, 0, nModes)}
	for len(f.modes) < nModes {
		// Integer wavevector with |k| in [1, 16] for spatial structure at
		// several scales.
		kx := float64(rng.Intn(31) - 15)
		ky := float64(rng.Intn(31) - 15)
		kz := float64(rng.Intn(31) - 15)
		k2 := float64(kx*kx) + float64(ky*ky) + float64(kz*kz)
		if k2 < 1 {
			continue
		}
		kmag := math.Sqrt(k2)
		// Kolmogorov-like amplitude: E(k) ~ k^-5/3 → |a| ~ k^-11/6.
		amp := math.Pow(kmag, -11.0/6.0)
		// Random direction projected perpendicular to k (incompressible).
		ax, ay, az := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		dot := (float64(ax*kx) + float64(ay*ky) + float64(az*kz)) / k2
		ax -= float64(dot * kx)
		ay -= float64(dot * ky)
		az -= float64(dot * kz)
		norm := math.Sqrt(float64(ax*ax) + float64(ay*ay) + float64(az*az))
		if norm < 1e-12 {
			continue
		}
		scale := amp / norm
		f.modes = append(f.modes, mode{
			k:     [3]float64{kx, ky, kz},
			a:     [3]float64{ax * scale, ay * scale, az * scale},
			p:     amp * 0.5,
			ph:    float64(rng.Float64()) * 2 * math.Pi,
			omega: kmag * 0.7, // eddy turnover frequency grows with k
		})
	}
	return f
}

// Eval returns the analytic field value (u, v, w, pressure) at position
// pos and time step `step`. This is the ground truth the gridded atoms
// sample; tests compare interpolation output against it.
//
// A mode's phase k·x + φ + ωt is taken apart by axis, as fill takes it:
// e^{iθ} is the product of the unit phasors of kx·x, ky·y and kz·z + φ + ωt,
// the last two multiplied first (rot), so that Eval and fill round the same
// products in the same order and agree bit for bit.
func (f *Field) Eval(step int, pos geom.Position) [Components]float64 {
	// Wrap into the periodic box first: the wavevectors are integer, so
	// sin(k·(x+2π)) = sin(k·x) and wrapping changes nothing analytically,
	// but it keeps the phase argument small enough that extreme caller
	// coordinates cannot overflow to Inf/NaN.
	pos = geom.Wrap(pos)
	t := float64(step) * f.dt
	var out [Components]float64
	for i := range f.modes {
		m := &f.modes[i]
		// Every product is rounded on its own (float64(...) forbids fusing it
		// into the following add), here and in the fill kernel, so both
		// produce the same bits on every architecture (make check-fma).
		sx, cx := sincos(float64(m.k[0] * pos.X))
		sy, cy := sincos(float64(m.k[1] * pos.Y))
		sz, cz := sincos(float64(m.k[2]*pos.Z) + m.ph + float64(m.omega*t))
		sy, cy = rot(sy, cy, sz, cz)
		s, c := rot(sx, cx, sy, cy)
		out[0] += float64(m.a[0] * s)
		out[1] += float64(m.a[1] * s)
		out[2] += float64(m.a[2] * s)
		out[3] += float64(m.p * c)
	}
	return out
}

// rot returns the sine and cosine of a+b from those of a and b, the complex
// product e^{ia}·e^{ib}, each of its four products rounded on its own.
func rot(sa, ca, sb, cb float64) (s, c float64) {
	return float64(sa*cb) + float64(ca*sb), float64(ca*cb) - float64(sa*sb)
}

// Atom holds the gridded samples of one storage block: (side+2·ghost)³
// grid points × Components values, the shape of its Geometry. The ghost
// samples are the replication halo of §III.A ("each atom is 72³ in length
// with four units of replication on each side for performance reasons"):
// samples beyond the atom's own extent let interpolation stencils near a
// face evaluate without touching the neighbour atom's data.
//
// An atom from Frame is a frame: it carries the recipe of its samples and
// synthesizes them block by block as they are first read (FillBlocks, or an
// At / Interpolate that reads them), so an atom that is only ever resident
// costs no synthesis and no sample memory, and one that is read costs only
// the samples its stencils reach. It stores them by half block row (the 4
// blocks that share (by, bz) on one side of the x midpoint) in units of a
// RowArena, and holds only the halves in which it has filled a block: a
// Lag4 stencil reads half a row's x extent, and most of them lie on one
// side of the midpoint. The first read of a sample is a write: goroutines
// that share an atom fill the blocks they will read before they part.
//
// The handle is three words: what every atom of a store shares is its
// Geometry's, and the atom's own recipe is one packed word.
type Atom struct {
	geo *Geometry
	// at is the atom's time step and grid coordinates, packed by pack.
	at uint64
	// filled is what the atom holds of its samples: nil until the handle's
	// first fill, so a handle that is only ever resident carries nothing,
	// and then kept, emptied, across Release and FrameInto.
	filled *holding
}

// The atoms a handle can name: a time step below MaxSteps and fewer than
// MaxAtomsPerAxis atoms per axis, which a store's atom key packs too
// (store.Open refuses a geometry past either). The handle packs the step
// above three coordAxisBits-bit coordinates.
const (
	MaxSteps        = 1 << 20
	MaxAtomsPerAxis = 1 << coordAxisBits
	coordAxisBits   = 14
	coordMask       = MaxAtomsPerAxis - 1
)

// pack is the handle's word for atom ac of time step step.
func pack(step int, ac geom.AtomCoord) uint64 {
	return uint64(step)<<(3*coordAxisBits) | uint64(ac.I)<<(2*coordAxisBits) | uint64(ac.J)<<coordAxisBits | uint64(ac.K)
}

// step is the atom's time step.
func (a *Atom) step() int { return int(a.at >> (3 * coordAxisBits)) }

// coord is the atom's grid coordinates.
func (a *Atom) coord() geom.AtomCoord {
	return geom.AtomCoord{
		I: uint32(a.at>>(2*coordAxisBits)) & coordMask,
		J: uint32(a.at>>coordAxisBits) & coordMask,
		K: uint32(a.at) & coordMask,
	}
}

// Geometry is what every atom of one shape shares: the field it samples,
// the space it tiles, the samples per atom side and the halo, the lengths
// fill and sampleCoords derive from them, and the x and y phase tables of
// the fill kernel. A store resolves its geometry once, at open; a Field
// keeps the geometries resolved on it, one per shape.
type Geometry struct {
	src         *Field
	space       geom.Space
	side, ghost int
	dim, band   int     // stored samples per axis, halo included; samples per block side
	atomLen, h  float64 // an atom's side and a sample's spacing, in physical units

	// The x and y phasors of every mode at every stored index of every atom
	// along the axis — ex[(I·dim+n)·modes+i] is mode i's at index n of the
	// atoms with x coordinate I — built by the first fill of any atom of
	// the geometry, so that a geometry nothing fills costs no table.
	tables sync.Once
	ex, ey []cis
}

// Geometry returns the field's geometry for atoms of space with side
// samples per axis (zero means 8) and a halo of ghost samples (a negative
// one means none), resolving it on the first call for that shape.
func (f *Field) Geometry(space geom.Space, side, ghost int) *Geometry {
	if side <= 0 {
		side = 8
	}
	ghost = max(ghost, 0)
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, g := range f.geos {
		if g.space == space && g.side == side && g.ghost == ghost {
			return g
		}
	}
	if n := space.AtomsPerAxis(); n > MaxAtomsPerAxis {
		panic(fmt.Sprintf("field: %d atoms per axis, a handle names at most %d", n, MaxAtomsPerAxis))
	}
	atomLen := float64(space.AtomSide) * space.VoxelSize()
	d := side + 2*ghost
	g := &Geometry{
		src: f, space: space, side: side, ghost: ghost,
		dim: d, band: (d + 7) / 8,
		atomLen: atomLen, h: atomLen / float64(side),
	}
	f.geos = append(f.geos, g)
	return g
}

// phases returns the geometry's x and y phase tables, building them on the
// first call. Each is the atoms per axis × dim × modes phasors, computed
// with fill's own expressions: the wrapped coordinate of a stored index is
// wrapped per component, so an x phasor depends on I and the index alone.
func (g *Geometry) phases() (ex, ey []cis) {
	g.tables.Do(func() {
		modes := g.src.modes
		nm, d := len(modes), g.dim
		per := g.space.AtomsPerAxis() * d * nm
		tab := make([]cis, 2*per)
		g.ex, g.ey = tab[:per:per], tab[per:]
		for c := range g.space.AtomsPerAxis() {
			base := float64(float64(c) * g.atomLen)
			for n := range d {
				off := float64((float64(n-g.ghost) + 0.5) * g.h)
				p := geom.Wrap(geom.Position{X: base + off, Y: base + off})
				o := (c*d + n) * nm
				for i := range modes {
					m := &modes[i]
					g.ex[o+i].s, g.ex[o+i].c = sincos(float64(m.k[0] * p.X))
					g.ey[o+i].s, g.ey[o+i].c = sincos(float64(m.k[1] * p.Y))
				}
			}
		}
	})
	return g.ex, g.ey
}

// FrameInto returns the unfilled atom ac of time step step on a handle the
// caller gives, which nothing else may still hold: a is released and
// overwritten whole, so no recipe and no sample of the atom it was
// survives in it; only the storage of its row table is kept, emptied. A
// nil a is allocated. The atom must be one a handle can name, and of the
// geometry's space.
func (g *Geometry) FrameInto(a *Atom, step int, ac geom.AtomCoord) *Atom {
	if n := uint32(g.space.AtomsPerAxis()); step < 0 || step >= MaxSteps || ac.I >= n || ac.J >= n || ac.K >= n {
		panic(fmt.Sprintf("field: atom %v of step %d is not one of %v", ac, step, g.space))
	}
	if a == nil {
		a = new(Atom)
	}
	a.Release()
	*a = Atom{geo: g, at: pack(step, ac), filled: a.filled}
	return a
}

// holding is the blocks an atom holds and the arena units they are in.
type holding struct {
	blocks Blocks
	// rows is the arena the atom's units come from: bound at its first
	// fill, nil again once it holds none.
	rows *RowArena
	// unit[16·bz+2·by+half] is the arena unit of the half (0 below the x
	// midpoint, 1 above it) of block row (by, bz), valid while the atom
	// holds a block of that half: 4 B a half row, not a slice header.
	unit [128]uint32
}

// Blocks is a set of an atom's samples. Each axis of the dim()³ samples is
// cut into at most 8 runs of ⌈dim/8⌉, so the atom into at most 8³ cubic
// blocks, and bit 8·by + bx of word bz stands for block (bx, by, bz). On the
// 8³ atoms the daemon serves, a block is one sample.
type Blocks [8]uint64

// Or returns the union of b and o.
func (b Blocks) Or(o Blocks) Blocks {
	for i := range b {
		b[i] |= o[i]
	}
	return b
}

// covers reports whether b holds every block of o.
func (b *Blocks) covers(o *Blocks) bool {
	for i := range b {
		if o[i]&^b[i] != 0 {
			return false
		}
	}
	return true
}

// add adds the blocks of width w holding samples x0..x1 × y0..y1 × z0..z1.
func (b *Blocks) add(w, x0, x1, y0, y1, z0, z1 int) {
	plane, z0, z1 := boxPlane(w, x0, x1, y0, y1, z0, z1)
	for bz := z0; bz <= z1; bz++ {
		b[bz] |= plane
	}
}

// hasBox reports whether b holds every block add would add, testing the
// words in place.
func (b *Blocks) hasBox(w, x0, x1, y0, y1, z0, z1 int) bool {
	plane, z0, z1 := boxPlane(w, x0, x1, y0, y1, z0, z1)
	for bz := z0; bz <= z1; bz++ {
		if b[bz]&plane != plane {
			return false
		}
	}
	return true
}

// boxPlane returns the blocks of width w holding samples x0..x1 × y0..y1
// as a word of a block set, and the words bz0..bz1 holding z0..z1.
func boxPlane(w, x0, x1, y0, y1, z0, z1 int) (plane uint64, bz0, bz1 int) {
	if w > 1 { // up to 8³ samples a block is a sample: no division
		x0, x1, y0, y1, z0, z1 = x0/w, x1/w, y0/w, y1/w, z0/w, z1/w
	}
	line := uint64(1)<<(x1+1) - uint64(1)<<x0
	for by := y0; by <= y1; by++ {
		plane |= line << (8 * by)
	}
	return plane, z0, z1
}

// dim is the stored samples per axis including the halo.
func (a *Atom) dim() int { return a.geo.dim }

// band is the samples per block side.
func (a *Atom) band() int { return a.geo.band }

// box returns the blocks holding samples x0..x1 × y0..y1 × z0..z1, in
// stored indices (the halo starts at 0).
func (a *Atom) box(x0, x1, y0, y1, z0, z1 int) Blocks {
	var b Blocks
	b.add(a.band(), x0, x1, y0, y1, z0, z1)
	return b
}

// fillBox fills the blocks holding samples x0..x1 × y0..y1 × z0..z1 that
// the atom does not hold yet, into rows of its own arena when it holds
// none. The held words are tested in place first, so an evaluation on
// samples the atom holds builds no block set.
func (a *Atom) fillBox(x0, x1, y0, y1, z0, z1 int) {
	if !a.held().hasBox(a.band(), x0, x1, y0, y1, z0, z1) {
		a.FillBlocks(a.box(x0, x1, y0, y1, z0, z1), nil)
	}
}

// all is every block of the atom.
func (a *Atom) all() Blocks {
	d := a.dim()
	return a.box(0, d-1, 0, d-1, 0, d-1)
}

// noBlocks is the empty set an atom without one holds. It is never written.
var noBlocks Blocks

// held is the set of blocks the atom holds.
func (a *Atom) held() *Blocks {
	if a.filled == nil {
		return &noBlocks
	}
	return &a.filled.blocks
}

// NominalAtomBytes is the on-disk size charged for one atom regardless of
// the in-memory sampling resolution: 64³ points × 4 components × 8 bytes,
// the paper's "roughly 8 MB".
const NominalAtomBytes = 64 * 64 * 64 * Components * 8

// SampleGhost materializes the atom at coordinate ac of time step `step`
// on a grid with `side` samples per axis within the atom — the simulation
// uses a reduced side (e.g. 8) to keep memory small; the disk model still
// charges the nominal 8 MB — and a replication halo of `ghost` samples on
// each side (the §III.A layout). Halo samples come from the periodic field
// itself, exactly as the production pipeline copies them from neighbouring
// atoms.
func (f *Field) SampleGhost(step int, space geom.Space, ac geom.AtomCoord, side, ghost int) *Atom {
	a := f.Frame(step, space, ac, side, ghost)
	a.Fill()
	return a
}

// Frame returns the atom SampleGhost would, unfilled, on the field's
// geometry of that shape.
func (f *Field) Frame(step int, space geom.Space, ac geom.AtomCoord, side, ghost int) *Atom {
	return f.Geometry(space, side, ghost).FrameInto(nil, step, ac)
}

// Fill synthesizes every sample the atom does not hold yet, into rows of
// the atom's own arena when it holds none yet.
func (a *Atom) Fill() {
	a.FillBlocks(a.all(), nil)
}

// FillBlocks synthesizes the blocks of want the atom does not hold yet. A
// half block row the atom holds no block of is a unit taken from rows, the
// arena the atom is bound to from its first fill until Release: later
// fills take their units from it and ignore rows. A nil rows binds the
// atom to an arena of its own. A taken unit is overwritten block by block
// as its blocks are filled; its other blocks hold whatever the unit held.
func (a *Atom) FillBlocks(want Blocks, rows *RowArena) {
	held := a.held()
	if held.covers(&want) {
		return
	}
	all := a.all()
	for i := range want {
		want[i] &= all[i] &^ held[i]
	}
	if want == (Blocks{}) { // blocks outside the atom alone
		return
	}
	if a.filled == nil {
		a.filled = new(holding)
	}
	h := a.filled
	if h.rows == nil {
		if rows == nil {
			rows = new(RowArena)
		}
		rows.shape(a)
		h.rows = rows
	}
	for bz, w := range want {
		for m := halfMask(w) &^ halfMask(h.blocks[bz]); m != 0; m &= m - 1 {
			h.unit[16*bz+bits.TrailingZeros16(m)] = h.rows.take()
		}
	}
	a.fill(&want)
	h.blocks = h.blocks.Or(want)
}

// Missing returns the blocks that kernel k's stencils read to evaluate at
// the positions pts of atom ac, less those the atom holds already: what
// FillBlocks must synthesize before the evaluations can share the atom.
func (a *Atom) Missing(k Kernel, ac geom.AtomCoord, pts []geom.Position) Blocks {
	var want Blocks
	held := a.held()
	w, d := a.band(), a.dim()
	if held.hasBox(w, 0, d-1, 0, d-1, 0, d-1) {
		return want
	}
	for _, pos := range pts {
		x, y, z, n := a.stencil(k, ac, pos)
		if !held.hasBox(w, x, x+n-1, y, y+n-1, z, z+n-1) {
			want.add(w, x, x+n-1, y, y+n-1, z, z+n-1)
		}
	}
	for i := range want {
		want[i] &^= held[i]
	}
	return want
}

// Release hands the atom's units back to its arena, free for the arena's
// next fill. The atom is a frame again: a holder that still uses it pays a
// second synthesis, never reads another atom's samples — for as long as
// the handle is this atom's. The engine releases an atom at the end of the
// decision in which the cache displaced it and from then on may hand the
// handle to FrameInto, so a handle is valid until that point and no
// further.
func (a *Atom) Release() {
	h := a.filled
	if h == nil || h.rows == nil {
		return
	}
	for bz, w := range h.blocks {
		for m := halfMask(w); m != 0; m &= m - 1 {
			h.rows.put(h.unit[16*bz+bits.TrailingZeros16(m)])
		}
	}
	h.blocks, h.rows = Blocks{}, nil
}

// halfMask is the half block rows of plane w of a block set that hold a
// block: bit 2·by+half for each nibble of w that is not zero (byte by's low
// nibble is blocks 0..3 of row by, its high nibble blocks 4..7).
func halfMask(w uint64) uint16 {
	w |= w >> 1
	w |= w >> 2
	w &= 0x1111111111111111 // bit 4i: nibble i is not zero
	// Gather bits 0, 4, 8, .. 60 into 0..15, halving the gaps each step.
	w = (w | w>>3) & 0x0303030303030303
	w = (w | w>>6) & 0x000f000f000f000f
	w = (w | w>>12) & 0x000000ff000000ff
	return uint16(w | w>>24)
}

// mid is the atom's x midpoint in stored samples: the first sample of the
// upper half of every block row.
func (a *Atom) mid() int { return 4 * a.band() }

// line returns the stored samples x0..x1-1 at stored indices (y, z), in
// the half block rows that hold them: lo from x0 to x1 or to the end of
// x0's half, whichever comes first, and hi the rest — empty unless the
// range crosses the midpoint, where it starts. The atom must hold a block
// of each half it reads.
func (a *Atom) line(x0, x1, y, z int) (lo, hi []float64) {
	by, ry := a.blockOf(y)
	bz, rz := a.blockOf(z)
	m := a.mid()
	in := (rz*a.band() + ry) * m // the line's first sample in its half rows
	h := a.filled
	units := h.unit[16*bz+2*by:][:2]
	if x0 >= m {
		return h.rows.at(units[1], (in+x0-m)*Components)[:(x1-x0)*Components], nil
	}
	lo = h.rows.at(units[0], (in+x0)*Components)[:(min(x1, m)-x0)*Components]
	if x1 > m {
		hi = h.rows.at(units[1], in*Components)[:(x1-m)*Components]
	}
	return lo, hi
}

// blockOf returns the block of stored index i along an axis and i's place
// in it; up to 8³ samples a block is a sample: no division.
func (a *Atom) blockOf(i int) (int, int) {
	if b := a.band(); b > 1 {
		return i / b, i % b
	}
	return i, 0
}

// RowArena is an arena of half block rows, its units, for atoms of one
// shape, the first it serves: a unit is the b·b lines of 4b samples (b
// the samples per block side; all of a line on an atom under 4 samples
// wide) that one side of a block row's x midpoint holds. It carves units
// from slabs of at most slabBytes and takes a freed unit back before it
// carves another, so it holds no more units than its atoms held at once,
// plus what is left of its last slab. It also holds the fill kernel's
// scratch — the z phasors of a fill's step and the y·z products of a line,
// which every fill from it overwrites; the x and y tables are the
// geometry's. It is not safe for concurrent fills: an engine's arena is its
// simulation goroutine's, and an atom filled outside an engine gets one of
// its own. The zero RowArena is empty and ready to use.
type RowArena struct {
	n      int  // float64s per unit; 0 until an atom shapes the arena
	shift  uint // log₂ of the units per slab
	slabs  [][]float64
	carved uint32   // units cut from the slabs so far
	free   []uint32 // units handed back, the next taken first
	tab    []cis    // fill's z phasors and y·z products, grown to the largest asked for
}

// slabBytes is the most an arena allocates at once, unless a unit is
// larger: a 16 KiB slab is 128 half rows of the daemon's 8³ atoms (one
// atom's worth), and one half row per slab of the paper's 72³.
const slabBytes = 16 << 10

// shape fixes the arena's units to a's half block rows, or checks that
// they are.
func (r *RowArena) shape(a *Atom) {
	d, b := a.dim(), a.band()
	n := b * b * min(a.mid(), d) * Components
	if r.n == 0 {
		nb := (d + b - 1) / b // blocks along an axis
		per := min(max(1, slabBytes/(8*n)), nb*nb*((nb+3)/4))
		r.n, r.shift = n, uint(bits.Len(uint(per))-1) // a power of two units a slab
		return
	}
	if r.n != n {
		panic("field: atom of another shape filled from an arena")
	}
}

// take returns a free unit, carving a new one only when none is free.
func (r *RowArena) take() uint32 {
	if k := len(r.free); k > 0 {
		i := r.free[k-1]
		r.free = r.free[:k-1]
		return i
	}
	i := r.carved
	if int(i>>r.shift) == len(r.slabs) {
		r.slabs = append(r.slabs, make([]float64, r.n<<r.shift))
	}
	r.carved++
	return i
}

// put hands unit i back.
func (r *RowArena) put(i uint32) { r.free = append(r.free, i) }

// at returns the samples of unit i from its off-th float64 on, to the end
// of its slab: a reader slices what it reads.
func (r *RowArena) at(i uint32, off int) []float64 {
	return r.slabs[i>>r.shift][int(i&(1<<r.shift-1))*r.n+off:]
}

// phases returns n entries of phase scratch, growing the arena's only when
// a fill needs more than any before it: once, for an arena of one shape
// and one field.
func (r *RowArena) phases(n int) []cis {
	if len(r.tab) < n {
		r.tab = make([]cis, n)
	}
	return r.tab[:n]
}

// Bytes is the sample memory the arena holds: its slabs, whose units are
// in use, free, or not carved yet.
func (r *RowArena) Bytes() int { return len(r.slabs) * 8 * r.n << r.shift }

// cis is a unit phasor cos θ + i·sin θ, one entry of the fill kernel's
// phase tables.
type cis struct{ s, c float64 }

// fill is the one synthesis kernel: it writes the field at every sample
// position of the blocks of want into the atom's units, with the bits Eval
// gives there. Eval's work is regrouped: the wrapped coordinate of a sample
// depends on one stored index per axis, and a mode's phasor is the product
// of one phasor per axis (Eval), so per mode fill reads the x and y phasors
// of the atom's column and row from its geometry's tables, takes one
// sincos for each z index that want's blocks span (a Lag4 stencil on 8³
// samples: 4, not 64), multiplies the y and z phasors once per line, and
// then each sample costs one rot per mode, its four sums scalars added in
// mode order from zero. The z phasors depend on the time step, so they are
// the arena's table, which every fill overwrites: a fill allocates nothing
// once its arena has served one and its geometry has built its tables. The
// blocks of a row that want holds side by side are one run of samples
// along x, written into the two half rows if it crosses the midpoint.
// Every sample is a function of its own indices alone, never of what a
// fill computed before it. Its cost is the blocks' samples, whatever the
// atom holds already.
func (a *Atom) fill(want *Blocks) {
	g := a.geo
	modes := g.src.modes
	nm := len(modes)
	d, b := g.dim, g.band
	ac := a.coord()
	gx, gy := g.phases()
	ex, ey := gx[int(ac.I)*d*nm:][:d*nm], gy[int(ac.J)*d*nm:][:d*nm]
	// The z indices want's blocks span get one phasor per mode; yz is the
	// product of a line's y and z.
	tab := a.filled.rows.phases((d + 1) * nm)
	ez, yz := tab[:d*nm], tab[d*nm:]
	t := float64(a.step()) * g.src.dt
	base := float64(float64(ac.K) * g.atomLen)
	for n := 0; n < d; n++ {
		if want[n/b] == 0 {
			continue
		}
		off := float64((float64(n-g.ghost) + 0.5) * g.h)
		z := geom.Wrap(geom.Position{Z: base + off}).Z
		o := n * nm
		for i := range modes {
			m := &modes[i]
			ez[o+i].s, ez[o+i].c = sincos(float64(m.k[2]*z) + m.ph + float64(m.omega*t))
		}
	}
	for zi := 0; zi < d; zi++ {
		plane := want[zi/b]
		if plane == 0 {
			continue
		}
		ezi := ez[zi*nm:][:nm]
		for yi := 0; yi < d; yi++ {
			line := uint8(plane >> (8 * (yi / b)))
			if line == 0 {
				continue
			}
			eyi := ey[yi*nm:][:nm]
			for i, e := range eyi {
				yz[i].s, yz[i].c = rot(e.s, e.c, ezi[i].s, ezi[i].c)
			}
			for line != 0 {
				// The lowest run of set bits: blocks lo..lo+n-1.
				lo := bits.TrailingZeros8(line)
				n := bits.TrailingZeros8(^(line >> lo))
				line &= line + line&-line
				x0, x1 := lo*b, min((lo+n)*b, d)
				// A run across the midpoint is written into its two half
				// rows: its samples before cut into the lower.
				below, above := a.line(x0, x1, yi, zi)
				cut := x0 + len(below)/Components
				run := below
				for xi := x0; xi < x1; xi++ {
					if xi == cut {
						run = above
					}
					exi := ex[xi*nm:][:nm]
					var u, v, w, q float64
					for i, e := range exi {
						s, c := rot(e.s, e.c, yz[i].s, yz[i].c)
						m := &modes[i]
						u += float64(m.a[0] * s)
						v += float64(m.a[1] * s)
						w += float64(m.a[2] * s)
						q += float64(m.p * c)
					}
					out := run[:Components]
					out[0], out[1], out[2], out[3] = u, v, w, q
					run = run[Components:]
				}
			}
		}
	}
}

// At returns the sampled value at integer grid point (i, j, k) of the
// atom's own extent; indices from −ghost to side+ghost−1 reach into the
// replication halo.
func (a *Atom) At(i, j, k int) [Components]float64 {
	g := a.geo.ghost
	x, y, z := i+g, j+g, k+g
	a.fillBox(x, x, y, y, z, z)
	var out [Components]float64
	v, _ := a.line(x, x+1, y, z)
	copy(out[:], v)
	return out
}
