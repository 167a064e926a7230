package jobgraph

import (
	"fmt"
	"slices"
)

// The op-log replayer is an external test (package jobgraph_test): it
// drives the graph through oracle.GatingPair, and oracle imports this
// package. These hand it what only the package can read.

// CheckGraph reports a broken table invariant (checkTables), or a query
// the incremental propagation left READY that the full fixpoint,
// propagateAll, promotes.
func CheckGraph(g *Graph) error {
	if err := checkTables(g); err != nil {
		return err
	}
	before := g.Schedulable()
	g.propagateAll()
	if after := g.Schedulable(); !slices.Equal(before, after) {
		return fmt.Errorf("the full fixpoint promoted further: %v, incremental %v", after, before)
	}
	return nil
}

// AlignWith is alignWith: a whole alignment on al, row by row.
var AlignWith = alignWith
