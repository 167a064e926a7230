// Package store is a layer whose constructor only the assembler calls.
package store

// Store is the layer.
type Store struct{}

// Open is the constructor.
func Open() *Store { return &Store{} }
