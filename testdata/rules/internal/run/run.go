// Package run holds one assembly offender beside the two allowed shapes.
package run

import (
	"rules/internal/engine"
	"rules/internal/store"
	"rules/internal/system"
)

// Hand builds an engine on a hand-built config: flagged.
func Hand() *engine.Engine { return engine.New(engine.Config{Batch: 2}) }

// Direct builds on the assembler's config: allowed.
func Direct(s *system.System) *engine.Engine { return engine.New(s.EngineConfig()) }

// Adjusted builds on the assembler's config with a field changed: allowed.
func Adjusted(s *system.System) *engine.Engine {
	ec := s.EngineConfig()
	ec.Batch = 4
	return engine.New(ec)
}

// Own opens a store outside the assembler: flagged.
func Own() *store.Store {
	// The blank line above the call keeps its line number apart from the
	// allowed shapes'.

	return store.Open()
}
