package field

import "math"

// sincos returns math.Sincos(x), bit for bit where the standard library does
// not fuse multiply-adds, without a branch on the data for finite |x| < 2²⁹:
// the same Cody–Waite reduction by π/4 in three parts, the same two
// polynomials evaluated in the same order, and the octant's swap of sine and
// cosine and their signs made bit selects, so runs of phases that cross
// octants at random cost what any other run does. Every product is rounded
// on its own, so the result is the same on every architecture. Any other
// input (|x| ≥ 2²⁹, ±Inf, NaN) goes to math.Sincos, whose Payne–Hanek
// reduction this kernel does not repeat.
func sincos(x float64) (sin, cos float64) {
	const (
		pi4a = 7.85398125648498535156e-1  // 0x3fe921fb40000000, π/4 split into three parts
		pi4b = 3.77489470793079817668e-8  // 0x3e64442d00000000
		pi4c = 2.69515142907905952645e-15 // 0x3ce8469898cc5170

		s0, s1, s2 = 1.58962301576546568060e-10, -2.50507477628578072866e-8, 2.75573136213857245213e-6
		s3, s4, s5 = -1.98412698295895385996e-4, 8.33333333332211858878e-3, -1.66666666666666307295e-1
		c0, c1, c2 = -1.13585365213876817300e-11, 2.08757008419747316778e-9, -2.75573141792967388112e-7
		c3, c4, c5 = 2.48015872888517045348e-5, -1.38888888888730564116e-3, 4.16666666666665929218e-2

		signBit         = 1 << 63
		reduceThreshold = 1 << 29
	)
	bits := math.Float64bits(x)
	ax := math.Float64frombits(bits &^ signBit)
	if !(ax < reduceThreshold) {
		return math.Sincos(x)
	}
	// The octant, rounded up to even so that z lies in [−π/4, π/4].
	j := uint64(int64(ax * (4 / math.Pi)))
	j += j & 1
	y := float64(int64(j))
	z := float64(float64(ax-float64(y*pi4a))-float64(y*pi4b)) - float64(y*pi4c)
	zz := float64(z * z)
	cp := float64(c0*zz) + c1
	sp := float64(s0*zz) + s1
	cp = float64(cp*zz) + c2
	sp = float64(sp*zz) + s2
	cp = float64(cp*zz) + c3
	sp = float64(sp*zz) + s3
	cp = float64(cp*zz) + c4
	sp = float64(sp*zz) + s4
	cp = float64(cp*zz) + c5
	sp = float64(sp*zz) + s5
	c := float64(1.0-float64(0.5*zz)) + float64(float64(zz*zz)*cp)
	s := z + float64(float64(z*zz)*sp)
	// Octants 2 and 6 swap the two; the sine is negated in octants 4 and 6
	// and for a negative x, the cosine in octants 2 and 4.
	swap := -(j >> 1 & 1)
	sb, cb := math.Float64bits(s), math.Float64bits(c)
	sb, cb = sb&^swap|cb&swap, cb&^swap|sb&swap
	sb ^= bits&signBit ^ j<<61&signBit
	cb ^= (j<<61 ^ j<<62) & signBit
	return math.Float64frombits(sb), math.Float64frombits(cb)
}
