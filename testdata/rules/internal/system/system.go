// Package system is the assembler: it may call every constructor.
package system

import (
	"rules/internal/engine"
	"rules/internal/store"
)

// System is an assembled node.
type System struct{ st *store.Store }

// Open assembles a node.
func Open() *System { return &System{st: store.Open()} }

// EngineConfig is the one engine config literal.
func (s *System) EngineConfig() engine.Config { return engine.Config{Store: s.st, Batch: 1} }

// Run builds and runs an engine.
func (s *System) Run() *engine.Engine { return engine.New(s.EngineConfig()) }
