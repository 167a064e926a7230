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
	"math"
	"math/bits"
	"math/rand"

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
		// into the following add), here and in the fill kernel, which hoists
		// three of them out of its inner loop, so both produce the same bits
		// on every architecture (make check-fma).
		s, c := sincos(float64(m.k[0]*pos.X) + float64(m.k[1]*pos.Y) + float64(m.k[2]*pos.Z) + m.ph + float64(m.omega*t))
		out[0] += float64(m.a[0] * s)
		out[1] += float64(m.a[1] * s)
		out[2] += float64(m.a[2] * s)
		out[3] += float64(m.p * c)
	}
	return out
}

// Atom holds the gridded samples of one storage block: (Side+2·Ghost)³
// grid points × Components values. Ghost is the replication halo of §III.A
// ("each atom is 72³ in length with four units of replication on each side
// for performance reasons"): samples beyond the atom's own extent let
// interpolation stencils near a face evaluate without touching the
// neighbour atom's data.
//
// An atom from Frame is a frame: it carries the recipe of its samples and
// synthesizes them block by block as they are first read (FillBlocks, or an
// At / Interpolate that reads them), so an atom that is only ever resident
// costs no synthesis and no sample memory, and one that is read costs only
// the samples its stencils reach. It stores them by block row (the 8
// blocks that share (by, bz)) in rows of a RowArena, and holds only the
// rows in which it has filled a block. The first read of a sample is a
// write: goroutines that share an atom fill the blocks they will read
// before they part.
type Atom struct {
	Side  int
	Ghost int

	// The recipe.
	src   *Field
	step  int
	space geom.Space
	ac    geom.AtomCoord
	// filled is what the atom holds of its samples: nil until the handle's
	// first fill, so a handle that is only ever resident carries nothing,
	// and then kept, emptied, across Release and FrameInto.
	filled *holding
}

// holding is the blocks an atom holds and the arena rows they are in.
type holding struct {
	blocks Blocks
	// rows is the arena the atom's rows come from: bound at its first fill,
	// nil again once it holds none.
	rows *RowArena
	// row[8·bz+by] is the arena row of block row (by, bz), valid while the
	// atom holds a block of that row: 4 B a row, not a slice header.
	row [64]uint32
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
	if w > 1 { // up to 8³ samples a block is a sample: no division
		x0, x1, y0, y1, z0, z1 = x0/w, x1/w, y0/w, y1/w, z0/w, z1/w
	}
	line := uint64(1)<<(x1+1) - uint64(1)<<x0
	var plane uint64
	for by := y0; by <= y1; by++ {
		plane |= line << (8 * by)
	}
	for bz := z0; bz <= z1; bz++ {
		b[bz] |= plane
	}
}

// dim is the stored samples per axis including the halo.
func (a *Atom) dim() int { return a.Side + 2*a.Ghost }

// band is the samples per block side.
func (a *Atom) band() int { return (a.dim() + 7) / 8 }

// box returns the blocks holding samples x0..x1 × y0..y1 × z0..z1, in
// stored indices (the halo starts at 0).
func (a *Atom) box(x0, x1, y0, y1, z0, z1 int) Blocks {
	var b Blocks
	b.add(a.band(), x0, x1, y0, y1, z0, z1)
	return b
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

// Frame returns the atom SampleGhost would, unfilled.
func (f *Field) Frame(step int, space geom.Space, ac geom.AtomCoord, side, ghost int) *Atom {
	return f.FrameInto(nil, step, space, ac, side, ghost)
}

// FrameInto is Frame on a handle the caller gives, which nothing else may
// still hold: a is released and overwritten whole, so no recipe and no
// sample of the atom it was survives in it; only the storage of its row
// table is kept, emptied. A nil a is allocated.
func (f *Field) FrameInto(a *Atom, step int, space geom.Space, ac geom.AtomCoord, side, ghost int) *Atom {
	if side <= 0 {
		side = 8
	}
	if ghost < 0 {
		ghost = 0
	}
	if a == nil {
		a = new(Atom)
	}
	a.Release()
	*a = Atom{Side: side, Ghost: ghost, src: f, step: step, space: space, ac: ac, filled: a.filled}
	return a
}

// Fill synthesizes every sample the atom does not hold yet, into rows of
// the atom's own arena when it holds none yet.
func (a *Atom) Fill() {
	a.FillBlocks(a.all(), nil)
}

// FillBlocks synthesizes the blocks of want the atom does not hold yet. A
// block row the atom holds no block of is taken from rows, the arena the
// atom is bound to from its first fill until Release: later fills take
// their rows from it and ignore rows. A nil rows binds the atom to an
// arena of its own. A taken row is overwritten block by block as its
// blocks are filled; its other blocks hold whatever the row held.
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
		for m := rowMask(w) &^ rowMask(h.blocks[bz]); m != 0; m &= m - 1 {
			h.row[8*bz+bits.TrailingZeros8(m)] = h.rows.take()
		}
	}
	a.fill(&want)
	h.blocks = h.blocks.Or(want)
}

// Missing returns the blocks that kernel k's stencils read to evaluate at
// the positions pts of atom ac, less those the atom holds already: what
// FillBlocks must synthesize before the evaluations can share the atom.
func (a *Atom) Missing(k Kernel, space geom.Space, ac geom.AtomCoord, pts []geom.Position) Blocks {
	var want Blocks
	held := a.held()
	if *held == a.all() {
		return want
	}
	w := a.band()
	for _, pos := range pts {
		x, y, z, n := a.stencil(k, space, ac, pos)
		want.add(w, x, x+n-1, y, y+n-1, z, z+n-1)
	}
	for i := range want {
		want[i] &^= held[i]
	}
	return want
}

// Release hands the atom's rows back to its arena, free for the arena's
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
		for m := rowMask(w); m != 0; m &= m - 1 {
			h.rows.put(h.row[8*bz+bits.TrailingZeros8(m)])
		}
	}
	h.blocks, h.rows = Blocks{}, nil
}

// rowMask is the block rows of plane w of a block set that hold a block:
// bit by for each byte by of w that is not zero.
func rowMask(w uint64) (m uint8) {
	for by := 0; w != 0; by, w = by+1, w>>8 {
		if uint8(w) != 0 {
			m |= 1 << by
		}
	}
	return m
}

// line returns the stored samples x = 0.. at stored indices (y, z), to the
// end of the row of the atom's arena that holds them: the atom must hold a
// block of that row.
func (a *Atom) line(y, z int) []float64 {
	by, bz, in := y, z, 0
	if b := a.band(); b > 1 { // up to 8³ samples a block row is a line: no division
		by, bz, in = y/b, z/b, (z%b*b+y%b)*a.dim()*Components
	}
	h := a.filled
	return h.rows.row(h.row[8*bz+by])[in:]
}

// RowArena is an arena of block rows for atoms of one shape, the first it
// serves. It carves rows from slabs of at most slabBytes and takes a
// freed row back before it carves another, so it holds no more rows than
// its atoms held at once, plus what is left of its last slab. It is not
// safe for concurrent fills: an engine's arena is its simulation
// goroutine's, and an atom filled outside an engine gets one of its own.
// The zero RowArena is empty and ready to use.
type RowArena struct {
	n      int  // float64s per row; 0 until an atom shapes the arena
	shift  uint // log₂ of the rows per slab
	slabs  [][]float64
	carved uint32   // rows cut from the slabs so far
	free   []uint32 // rows handed back, the next taken first
}

// slabBytes is the most an arena allocates at once, unless a row is
// larger: a 16 KiB slab is 64 rows of the daemon's 8³ atoms (one atom's
// worth), and one row per slab of the paper's 72³.
const slabBytes = 16 << 10

// shape fixes the arena's rows to a's block rows, or checks that they are.
func (r *RowArena) shape(a *Atom) {
	d, b := a.dim(), a.band()
	n := b * b * d * Components
	if r.n == 0 {
		nb := (d + b - 1) / b // block rows along an axis
		per := min(max(1, slabBytes/(8*n)), nb*nb)
		r.n, r.shift = n, uint(bits.Len(uint(per))-1) // a power of two rows a slab
		return
	}
	if r.n != n {
		panic("field: atom of another shape filled from an arena")
	}
}

// take returns a free row, carving a new one only when none is free.
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

// put hands row i back.
func (r *RowArena) put(i uint32) { r.free = append(r.free, i) }

// row returns the samples of row i.
func (r *RowArena) row(i uint32) []float64 {
	return r.slabs[i>>r.shift][int(i&(1<<r.shift-1))*r.n:][:r.n]
}

// Bytes is the sample memory the arena holds: its slabs, whose rows are
// in use, free, or not carved yet.
func (r *RowArena) Bytes() int { return len(r.slabs) * 8 * r.n << r.shift }

// paperDim is the samples per axis of a paper-sized atom, halo included
// (64 + 2·4): up to it the fill kernel's coordinate tables live on its
// stack.
const paperDim = 72

// fill is the one synthesis kernel: it writes the field at every sample
// position of the blocks of want into the atom's rows, with the bits Eval
// gives there. Eval's work is regrouped, not reformulated: the wrapped
// coordinate of a sample depends on one index per axis, so the three
// tables are computed once per call; the blocks of a row that want holds
// side by side are one run of samples along x, and with the modes inside
// the run and the samples innermost, ω·t, k·y and k·z are per-mode
// constants of the run; and one sincos gives the sine and cosine of the
// same phase. Every sample still sums the same rounded terms in the same
// mode order, starting from zero. Its cost is the blocks' samples, whatever
// the atom holds already.
func (a *Atom) fill(want *Blocks) {
	f := a.src
	atomLen := float64(a.space.AtomSide) * a.space.VoxelSize()
	h := atomLen / float64(a.Side)
	d, b := a.dim(), a.band()
	var stack [3 * paperDim]float64
	tab := stack[:]
	if 3*d > len(tab) {
		tab = make([]float64, 3*d)
	}
	xs, ys, zs := tab[:d], tab[d:2*d], tab[2*d:3*d]
	for n := 0; n < d; n++ {
		off := float64((float64(n-a.Ghost) + 0.5) * h)
		p := geom.Wrap(geom.Position{
			X: float64(float64(a.ac.I)*atomLen) + off,
			Y: float64(float64(a.ac.J)*atomLen) + off,
			Z: float64(float64(a.ac.K)*atomLen) + off,
		})
		xs[n], ys[n], zs[n] = p.X, p.Y, p.Z
	}
	t := float64(a.step) * f.dt
	for zi, z := range zs {
		plane := want[zi/b]
		for yi, y := range ys {
			line := uint8(plane >> (8 * (yi / b)))
			if line == 0 {
				continue
			}
			samples := a.line(yi, zi)
			for line != 0 {
				// The lowest run of set bits: blocks lo..lo+n-1.
				lo := bits.TrailingZeros8(line)
				n := bits.TrailingZeros8(^(line >> lo))
				line &= line + line&-line
				x0, x1 := lo*b, min((lo+n)*b, d)
				run := samples[x0*Components : x1*Components]
				clear(run)
				for mi := range f.modes {
					m := &f.modes[mi]
					kx, ky, kz, wt := m.k[0], float64(m.k[1]*y), float64(m.k[2]*z), float64(m.omega*t)
					for i, x := range xs[x0:x1] {
						s, c := sincos(float64(kx*x) + ky + kz + m.ph + wt)
						v := run[i*Components:][:Components]
						v[0] += float64(m.a[0] * s)
						v[1] += float64(m.a[1] * s)
						v[2] += float64(m.a[2] * s)
						v[3] += float64(m.p * c)
					}
				}
			}
		}
	}
}

// At returns the sampled value at integer grid point (i, j, k) of the
// atom's own extent; indices from −Ghost to Side+Ghost−1 reach into the
// replication halo.
func (a *Atom) At(i, j, k int) [Components]float64 {
	x, y, z := i+a.Ghost, j+a.Ghost, k+a.Ghost
	a.FillBlocks(a.box(x, x, y, y, z, z), nil)
	var out [Components]float64
	copy(out[:], a.line(y, z)[x*Components:])
	return out
}
