package jobgraph

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Dot renders the precedence graph in Graphviz DOT form, in the style of
// the paper's Fig. 5: one row ("rank") per job, solid directed edges for
// precedence constraints, dashed undirected edges for gating, and each
// vertex labelled with its state and gating number. Useful for debugging
// gated schedules and for documentation.
func (g *Graph) Dot() string {
	var b strings.Builder
	b.WriteString("graph jaws {\n")
	b.WriteString("  rankdir=LR;\n  node [shape=circle fontsize=10];\n")

	order := slices.Clone(g.order)
	slices.SortFunc(order, func(x, y int32) int { return cmp.Compare(g.jobs[x].id, g.jobs[y].id) })

	for _, slot := range order {
		jobID, n := g.jobs[slot].id, len(g.jobs[slot].q)
		fmt.Fprintf(&b, "  subgraph cluster_j%d {\n    label=\"job %d\";\n", jobID, jobID)
		for s := 0; s < n; s++ {
			q := Ref{Job: jobID, Seq: s}
			style := ""
			switch g.State(q) {
			case Done:
				style = " style=filled fillcolor=gray80"
			case Queue:
				style = " style=filled fillcolor=palegreen"
			case Ready:
				style = " style=filled fillcolor=lightyellow"
			}
			label := fmt.Sprintf("%d.%d\\n%s", jobID, s, g.State(q))
			if gn := g.GatingNumber(q); gn > 0 {
				label += fmt.Sprintf("\\nG=%d", gn)
			}
			fmt.Fprintf(&b, "    q%d_%d [label=\"%s\"%s];\n", jobID, s, label, style)
		}
		// Precedence edges.
		for s := 0; s+1 < n; s++ {
			fmt.Fprintf(&b, "    q%d_%d -- q%d_%d [style=solid dir=forward];\n", jobID, s, jobID, s+1)
		}
		b.WriteString("  }\n")
	}

	// Gating edges: emit each component as a clique, each pair once — at
	// its first member, the one the walk in job order meets first.
	for _, slot := range order {
		for _, v := range g.jobs[slot].q {
			members := g.comps[v.comp].members
			if len(members) == 0 || members[0].slot != slot {
				continue
			}
			for i, a := range members {
				for _, d := range members[i+1:] {
					fmt.Fprintf(&b, "  q%d_%d -- q%d_%d [style=dashed constraint=false];\n",
						a.job, a.seq, d.job, d.seq)
				}
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}
