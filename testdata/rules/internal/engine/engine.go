// Package engine is the layer the assembler's config describes.
package engine

import "rules/internal/store"

// Config describes an engine.
type Config struct {
	Store *store.Store
	Batch int
}

// Engine is the layer.
type Engine struct{ cfg Config }

// New is the constructor.
func New(cfg Config) *Engine { return &Engine{cfg: cfg} }
