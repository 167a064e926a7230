// Package morton implements the Morton (Z-order) space-filling curve used
// by the Turbulence database to partition and index 3-D space.
//
// The database logically partitions space into cubes of side 2^k and lays
// atoms out on disk in Morton order, so atoms that are close along the
// curve are also near each other in voxel space. Both the store's on-disk
// layout (an atom's extent is its (time step, Morton code) rank) and JAWS's
// batch execution order (sub-queries within a batch are evaluated in Morton
// order) depend on this package.
//
// Coordinates up to 21 bits per axis are supported, so codes fit in 63
// bits of a uint64.
package morton

import "fmt"

// MaxCoordBits is the number of bits supported per axis.
const MaxCoordBits = 21

// MaxCoord is the largest encodable per-axis coordinate.
const MaxCoord = 1<<MaxCoordBits - 1

// Code is a 3-D Morton code: the bit-interleaving of three coordinates.
// Codes order atoms on disk and define the within-batch execution order.
type Code uint64

// Encode interleaves the bits of x, y, and z into a Morton code.
// Each coordinate must be at most MaxCoord; larger values panic because a
// silently truncated code would corrupt the spatial index.
func Encode(x, y, z uint32) Code {
	if x > MaxCoord || y > MaxCoord || z > MaxCoord {
		panic(fmt.Sprintf("morton: coordinate out of range: (%d,%d,%d) > %d", x, y, z, MaxCoord))
	}
	return Code(spread(x) | spread(y)<<1 | spread(z)<<2)
}

// Decode recovers the three coordinates interleaved into c.
func (c Code) Decode() (x, y, z uint32) {
	return compact(uint64(c)), compact(uint64(c) >> 1), compact(uint64(c) >> 2)
}

// spread distributes the low 21 bits of v so that each bit lands at three
// times its original position (the classic magic-number dilation).
func spread(v uint32) uint64 {
	x := uint64(v) & 0x1fffff
	x = (x | x<<32) & 0x1f00000000ffff
	x = (x | x<<16) & 0x1f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

// compact is the inverse of spread: it collects every third bit of v.
func compact(v uint64) uint32 {
	x := v & 0x1249249249249249
	x = (x | x>>2) & 0x10c30c30c30c30c3
	x = (x | x>>4) & 0x100f00f00f00f00f
	x = (x | x>>8) & 0x1f0000ff0000ff
	x = (x | x>>16) & 0x1f00000000ffff
	x = (x | x>>32) & 0x1fffff
	return uint32(x)
}

// String renders the code and its decoded coordinates for diagnostics.
func (c Code) String() string {
	x, y, z := c.Decode()
	return fmt.Sprintf("morton(%d=%d,%d,%d)", uint64(c), x, y, z)
}
