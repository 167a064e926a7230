// Package oracle stands for the reference harness: what only it calls is
// not reached by the program.
package oracle

import "mini/internal/a"

// Check calls a.Reference, which nothing else calls, on a Config whose
// Depth nothing else sets.
func Check() int { return a.Reference() + a.Config{Depth: 2}.Depth }
