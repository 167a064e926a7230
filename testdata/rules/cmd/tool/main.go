// Command tool is a listed binary that computes a percentile by hand.
package main

import (
	"fmt"
	"sort"
)

// percentile is a hand-computed order statistic.
func percentile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	return xs[int(float64(len(xs)-1)*q/100)]
}

func main() {
	xs := []float64{3, 1, 2}
	// The call is flagged at its line.
	fmt.Println(percentile(xs, 50))
}
