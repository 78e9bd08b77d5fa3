package consultant

import (
	"fmt"
	"sort"
	"strings"
)

// DOT renders the Search History Graph in Graphviz dot format, with node
// colors following the Paradyn display convention described under the
// paper's Figure 2: nodes that tested false are light grey, nodes that
// tested true are dark grey (drawn here as filled), pruned nodes are
// dashed, and untested nodes are white.
func (g *SHG) DOT() string {
	var b strings.Builder
	b.WriteString("digraph SHG {\n")
	b.WriteString("  rankdir=TB;\n")
	b.WriteString("  node [shape=box, fontsize=10];\n")
	ids := make(map[*Node]int, len(g.order))
	for i, n := range g.order {
		ids[n] = i
		label := n.Hyp.Name
		if !n.Focus.IsWholeProgram() {
			label += "\\n" + n.name
		}
		attrs := []string{fmt.Sprintf("label=\"%s\"", escapeDOT(label))}
		switch n.State {
		case StateTrue:
			attrs = append(attrs, "style=filled", "fillcolor=gray40", "fontcolor=white")
		case StateFalse:
			attrs = append(attrs, "style=filled", "fillcolor=gray90")
		case StatePruned:
			attrs = append(attrs, "style=dashed")
		}
		fmt.Fprintf(&b, "  n%d [%s];\n", i, strings.Join(attrs, ", "))
	}
	// Deterministic edge order.
	type edge struct{ from, to int }
	var edges []edge
	for _, n := range g.order {
		for _, c := range n.children {
			edges = append(edges, edge{ids[n], ids[c]})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "  n%d -> n%d;\n", e.from, e.to)
	}
	b.WriteString("}\n")
	return b.String()
}

func escapeDOT(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	// Preserve the deliberate line break inserted above.
	s = strings.ReplaceAll(s, `\\n`, `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}
