package morton

import "testing"

// FuzzRoundTrip verifies Encode/Decode are inverse for every in-range
// coordinate triple.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0))
	f.Add(uint32(MaxCoord), uint32(MaxCoord), uint32(MaxCoord))
	f.Add(uint32(12345), uint32(54321), uint32(777))
	f.Fuzz(func(t *testing.T, x, y, z uint32) {
		x &= MaxCoord
		y &= MaxCoord
		z &= MaxCoord
		gx, gy, gz := Encode(x, y, z).Decode()
		if gx != x || gy != y || gz != z {
			t.Fatalf("round trip (%d,%d,%d) → (%d,%d,%d)", x, y, z, gx, gy, gz)
		}
	})
}

// FuzzCubeRange verifies that an aligned cube's far corner always encodes
// inside the side³ codes that start at its minimum corner.
func FuzzCubeRange(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0), uint8(2))
	f.Add(uint32(64), uint32(128), uint32(32), uint8(4))
	f.Fuzz(func(t *testing.T, x, y, z uint32, lvl uint8) {
		level := uint(lvl % 6)
		side := uint32(1) << level
		// Align the corner.
		x = (x % 1024) &^ (side - 1)
		y = (y % 1024) &^ (side - 1)
		z = (z % 1024) &^ (side - 1)
		lo := Encode(x, y, z)
		hi := lo + Code(1)<<(3*level)
		c := Encode(x+side-1, y+side-1, z+side-1)
		if c < lo || c >= hi {
			t.Fatalf("far corner outside interval")
		}
	})
}
