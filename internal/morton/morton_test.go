package morton

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeKnownValues(t *testing.T) {
	cases := []struct {
		x, y, z uint32
		want    Code
	}{
		{0, 0, 0, 0},
		{1, 0, 0, 1},
		{0, 1, 0, 2},
		{0, 0, 1, 4},
		{1, 1, 1, 7},
		{2, 0, 0, 8},
		{7, 7, 7, 511},
	}
	for _, c := range cases {
		if got := Encode(c.x, c.y, c.z); got != c.want {
			t.Errorf("Encode(%d,%d,%d) = %d, want %d", c.x, c.y, c.z, got, c.want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(x, y, z uint32) bool {
		x &= MaxCoord
		y &= MaxCoord
		z &= MaxCoord
		gx, gy, gz := Encode(x, y, z).Decode()
		return gx == x && gy == y && gz == z
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeMaxCoord(t *testing.T) {
	c := Encode(MaxCoord, MaxCoord, MaxCoord)
	x, y, z := c.Decode()
	if x != MaxCoord || y != MaxCoord || z != MaxCoord {
		t.Fatalf("max coord round trip failed: got (%d,%d,%d)", x, y, z)
	}
}

func TestEncodeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Encode with out-of-range coordinate did not panic")
		}
	}()
	Encode(MaxCoord+1, 0, 0)
}

// Property: Morton order within an aligned cube is contiguous — the side³
// codes from the cube's minimum corner on decode to the points of the cube,
// and every point of the cube encodes among them. The store's layout and
// the cluster's contiguous partitions rest on it.
func TestCubeRangeContiguity(t *testing.T) {
	lo := Encode(4, 8, 12) // a cube of side 4
	hi := lo + 64
	for c := lo; c < hi; c++ {
		x, y, z := c.Decode()
		if x < 4 || x >= 8 || y < 8 || y >= 12 || z < 12 || z >= 16 {
			t.Fatalf("code %d decodes to (%d,%d,%d), outside cube", c, x, y, z)
		}
	}
	count := 0
	for x := uint32(4); x < 8; x++ {
		for y := uint32(8); y < 12; y++ {
			for z := uint32(12); z < 16; z++ {
				c := Encode(x, y, z)
				if c < lo || c >= hi {
					t.Fatalf("point (%d,%d,%d) encodes to %d, outside [%d,%d)", x, y, z, c, lo, hi)
				}
				count++
			}
		}
	}
	if count != 64 {
		t.Fatalf("expected 64 points, visited %d", count)
	}
}

func TestParent(t *testing.T) {
	// The 8 children of a level-1 cube share all but their low three bits:
	// one shift walks up the hierarchical index.
	parent := Encode(2, 4, 6) >> 3
	for dx := uint32(0); dx < 2; dx++ {
		for dy := uint32(0); dy < 2; dy++ {
			for dz := uint32(0); dz < 2; dz++ {
				if c := Encode(2+dx, 4+dy, 6+dz); c>>3 != parent {
					t.Fatalf("child (%d,%d,%d) parent = %d, want %d", 2+dx, 4+dy, 6+dz, c>>3, parent)
				}
			}
		}
	}
}

// Property: Morton order preserves spatial locality in aggregate — the mean
// spatial distance between Morton-consecutive cells is far smaller than
// between randomly paired cells. This is the property the paper relies on
// when sorting positions in Morton order to amortize disk seeks.
func TestLocalityPreservation(t *testing.T) {
	const side = 16
	codes := make([]Code, 0, side*side*side)
	for x := uint32(0); x < side; x++ {
		for y := uint32(0); y < side; y++ {
			for z := uint32(0); z < side; z++ {
				codes = append(codes, Encode(x, y, z))
			}
		}
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
	// Dist2 is the squared Euclidean distance between two encoded cells.
	Dist2 := func(a, b Code) uint64 {
		ax, ay, az := a.Decode()
		bx, by, bz := b.Decode()
		dx, dy, dz := int64(ax)-int64(bx), int64(ay)-int64(by), int64(az)-int64(bz)
		return uint64(dx*dx + dy*dy + dz*dz)
	}

	var adjSum float64
	for i := 1; i < len(codes); i++ {
		adjSum += float64(Dist2(codes[i-1], codes[i]))
	}
	adjMean := adjSum / float64(len(codes)-1)

	rng := rand.New(rand.NewSource(7))
	var randSum float64
	const pairs = 4095
	for i := 0; i < pairs; i++ {
		a := codes[rng.Intn(len(codes))]
		b := codes[rng.Intn(len(codes))]
		randSum += float64(Dist2(a, b))
	}
	randMean := randSum / pairs

	if adjMean*10 > randMean {
		t.Fatalf("Morton-adjacent mean dist² %.2f not ≪ random mean dist² %.2f", adjMean, randMean)
	}
}

// Property: encoding is strictly monotone along each axis when the other
// two coordinates are zero (bits only shift left).
func TestAxisMonotonicity(t *testing.T) {
	f := func(a, b uint32) bool {
		a &= MaxCoord
		b &= MaxCoord
		if a == b {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return Encode(lo, 0, 0) < Encode(hi, 0, 0) &&
			Encode(0, lo, 0) < Encode(0, hi, 0) &&
			Encode(0, 0, lo) < Encode(0, 0, hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestString(t *testing.T) {
	s := Encode(1, 2, 3).String()
	if s == "" {
		t.Fatal("String() returned empty")
	}
}

func BenchmarkEncode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Encode(uint32(i)&MaxCoord, uint32(i>>1)&MaxCoord, uint32(i>>2)&MaxCoord)
	}
}

func BenchmarkDecode(b *testing.B) {
	c := Encode(123456, 654321, 111111)
	for i := 0; i < b.N; i++ {
		_, _, _ = c.Decode()
	}
}
