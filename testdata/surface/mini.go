// Package mini is the facade of the module TestClosedSurfaceMiniModule
// analyses.
package mini

import "mini/internal/a"

// Config re-exports a.Config: its fields are a caller's to set.
type Config = a.Config

// Run reaches Outer through the Sched interface alone and Box through an
// instantiation alone.
func Run() int {
	b := a.Box[int]{}
	return a.Drain(&a.Outer{}) + b.Get()
}
