// Package stats holds a second histogram type: flagged.
package stats

// Histogram is a second histogram type.
type Histogram struct{ n int }

// Add counts one sample.
func (h *Histogram) Add() { h.n++ }
