package query

import "fmt"

// StepDT is the simulation time between adjacent stored steps, in
// seconds. The paper's database stores 1024 steps spanning 2 s of
// simulated time (§II; the Fig. 9 axis uses the same base), and the
// reproduction keeps that time base for derivative queries.
const StepDT = 2.0 / 1024

// DerivWeights returns the forward finite-difference coefficients
// c_0..c_{k-1} approximating f'(x₀) from k unit-spaced samples
// f(x₀), f(x₀+1), …, f(x₀+k−1):
//
//	f'(x₀) ≈ Σⱼ cⱼ·f(x₀+j)       (O(h^{k−1}) accurate; divide by the
//	                              actual spacing to scale)
//
// k = 2 gives the plain forward difference [−1, 1]; k = 3 the
// second-order [−3/2, 2, −1/2]; higher k the usual one-sided stencils
// (Fornberg's algorithm). The engine uses these to collapse a derivative
// query's per-step results into ∂/∂t estimates at the chain's anchor
// step. k must be ≥ 2.
func DerivWeights(k int) []float64 {
	if k < 2 {
		panic(fmt.Sprintf("query: derivative stencil needs ≥2 samples, got %d", k))
	}
	// Fornberg (1988), "Generation of finite difference formulas on
	// arbitrarily spaced grids", for derivative order 1 at z = 0 over
	// nodes x_j = j.
	const m = 1
	c := make([][m + 1]float64, k)
	c1 := 1.0
	c4 := -0.0 // x[0] - z
	c[0][0] = 1
	for i := 1; i < k; i++ {
		mn := i
		if mn > m {
			mn = m
		}
		c2 := 1.0
		c5 := c4
		c4 = float64(i) // x[i] - z
		for j := 0; j < i; j++ {
			c3 := float64(i - j) // x[i] - x[j]
			c2 *= c3
			if j == i-1 {
				for v := mn; v >= 1; v-- {
					c[i][v] = c1 * (float64(float64(v)*c[i-1][v-1]) - float64(c5*c[i-1][v])) / c2
				}
				c[i][0] = -c1 * c5 * c[i-1][0] / c2
			}
			for v := mn; v >= 1; v-- {
				c[j][v] = (float64(c4*c[j][v]) - float64(float64(v)*c[j][v-1])) / c3
			}
			c[j][0] = c4 * c[j][0] / c3
		}
		c1 = c2
	}
	out := make([]float64, k)
	for j := range out {
		out[j] = c[j][1]
	}
	return out
}
