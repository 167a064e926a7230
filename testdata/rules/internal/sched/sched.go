// Package sched is a layer whose constructors the assembler and the
// oracle's StandardTarget call.
package sched

// JAWS is a scheduler.
type JAWS struct{}

// NewJAWS is its constructor.
func NewJAWS() *JAWS { return &JAWS{} }
