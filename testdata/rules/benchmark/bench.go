// Package benchmark is its own module in the real tree and out of both
// rules: its own store is not flagged.
package benchmark

import "rules/internal/store"

// Open opens the benchmark's store.
func Open() *store.Store { return store.Open() }
