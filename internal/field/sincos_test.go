package field

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestSincosMatchesMath holds the fill kernel's sincos to math.Sincos, bit
// for bit, on a million phases over the range the field's phases take, on
// both sides of every octant boundary up to it, on ±0, and on the inputs
// that fall back. The compiler fuses the standard library's multiply-adds
// where the architecture has them (arm64, ppc64le, riscv64, s390x) and
// never on amd64; sincos rounds every product, so math.Sincos is its
// reference on amd64 alone.
func TestSincosMatchesMath(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("math.Sincos fuses multiply-adds on %s: it is a reference on amd64 alone", runtime.GOARCH)
	}
	check := func(x float64) {
		t.Helper()
		s, c := sincos(x)
		ws, wc := math.Sincos(x)
		if math.Float64bits(s) != math.Float64bits(ws) || math.Float64bits(c) != math.Float64bits(wc) {
			t.Fatalf("sincos(%v) (%#x) = %v, %v; math.Sincos gives %v, %v", x, math.Float64bits(x), s, c, ws, wc)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 1_000_000 {
		check(float64(rng.Float64()*1024) - 512)
	}
	for range 100_000 { // and out to the reduction's limit
		check(math.Copysign(math.Exp(float64(rng.Float64()*29)*math.Ln2), float64(rng.Float64())-0.5))
	}
	for k := -652; k <= 652; k++ { // every k·π/4 with |k·π/4| ≤ 512
		x := float64(k) * (math.Pi / 4)
		check(x)
		up, down := x, x
		for range 4 {
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
			check(up)
			check(down)
		}
	}
	for _, x := range []float64{0, math.Copysign(0, -1), 1 << 29, -(1 << 29), math.Nextafter(1<<29, 0), math.Inf(1), math.Inf(-1), math.NaN()} {
		check(x)
	}
}

// BenchmarkSincos prices the kernel against math.Sincos on runs of phases
// in random octants, as a short fill run calls it.
func BenchmarkSincos(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = float64(rng.Float64()*1024) - 512
	}
	for _, tc := range []struct {
		name string
		f    func(float64) (float64, float64)
	}{{"kernel", sincos}, {"math", math.Sincos}} {
		b.Run(tc.name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				s, c := tc.f(xs[i%len(xs)])
				acc += s + c
			}
			sink = acc
		})
	}
}

var sink float64
