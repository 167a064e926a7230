// Package a holds two dead names (an export, a field of a Config the facade
// aliases) and a harness-only export, among two shapes that only look dead.
package a

// Dead has no caller: the first finding.
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

// Config is aliased by the facade, and nothing in the module sets Size:
// the alias does not set it either, so it is the second finding.
type Config struct{ Size int }

// Reference is called by the harness alone: the third finding, marked as
// the harness's.
func Reference() int { return 0 }
