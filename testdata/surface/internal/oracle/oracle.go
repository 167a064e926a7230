// Package oracle stands for the reference harness: what only it calls is
// not reached by the program.
package oracle

import "mini/internal/a"

// Check calls a.Reference, which nothing else calls.
func Check() int { return a.Reference() }
