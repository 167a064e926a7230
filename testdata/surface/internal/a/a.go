// Package a holds one dead export among three shapes that only look dead.
package a

// Dead has no caller: the one finding.
func Dead() {}

// Sched is implemented by Outer, through the embedded core alone.
type Sched interface{ Pending() int }

type core struct{ n int }

// Pending is called only through Sched, on a type that embeds core.
func (c *core) Pending() int { return c.n }

// Outer has Pending by embedding.
type Outer struct{ core }

// Drain calls the interface method.
func Drain(s Sched) int { return s.Pending() }

// Box is generic: Get is referenced only on Box[int].
type Box[T any] struct{ v T }

// Get returns the boxed value.
func (b *Box[T]) Get() T { return b.v }

// Config is aliased by the facade, so nothing in the module sets Size.
type Config struct{ Size int }
