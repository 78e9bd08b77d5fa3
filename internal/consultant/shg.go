package consultant

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dyninst"
	"repro/internal/resource"
)

// Priority orders the search: High pairs are instrumented at search start
// and tested persistently; Low pairs sort behind their Medium siblings.
type Priority int

// Priority levels, in increasing order of urgency.
const (
	Low Priority = iota
	Medium
	High
)

// String implements fmt.Stringer.
func (p Priority) String() string {
	switch p {
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// ParsePriority converts "low"/"medium"/"high".
func ParsePriority(s string) (Priority, error) {
	switch strings.ToLower(s) {
	case "low":
		return Low, nil
	case "medium":
		return Medium, nil
	case "high":
		return High, nil
	}
	return Medium, fmt.Errorf("consultant: unknown priority %q", s)
}

// NodeState is the lifecycle state of a Search History Graph node.
type NodeState int

// Node states. Pending nodes are waiting for an instrumentation slot
// below the cost limit; Testing nodes are collecting data; True and False
// are concluded; Pruned nodes were excluded by a pruning directive and are
// never instrumented.
const (
	StatePending NodeState = iota
	StateTesting
	StateTrue
	StateFalse
	StatePruned
)

// String implements fmt.Stringer.
func (s NodeState) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateTesting:
		return "testing"
	case StateTrue:
		return "true"
	case StateFalse:
		return "false"
	case StatePruned:
		return "pruned"
	default:
		return fmt.Sprintf("NodeState(%d)", int(s))
	}
}

// Node is one (hypothesis : focus) pair in the Search History Graph.
type Node struct {
	Hyp   *Hypothesis
	Focus resource.Focus

	State       NodeState
	Priority    Priority
	Persistent  bool
	Value       float64
	Threshold   float64
	CreatedAt   float64
	StartedAt   float64
	ConcludedAt float64

	probe   *dyninst.Probe
	refined bool
	seq     int
	key     string

	parents  []*Node
	children []*Node
}

// Key returns the node's unique SHG key.
func (n *Node) Key() string { return n.key }

// FocusName returns the canonical name of the node's focus: the part of
// the key after the hypothesis name.
func (n *Node) FocusName() string { return n.key[len(n.Hyp.Name)+1:] }

// NodeKey builds the SHG key for a (hypothesis name : focus) pair.
func NodeKey(hyp string, focus resource.Focus) string {
	return hyp + " " + focus.Name()
}

// Children returns the node's refinements, in creation order.
func (n *Node) Children() []*Node {
	out := make([]*Node, len(n.children))
	copy(out, n.children)
	return out
}

// Parents returns the node's parents (a node reachable by several
// refinement paths has several).
func (n *Node) Parents() []*Node {
	out := make([]*Node, len(n.parents))
	copy(out, n.parents)
	return out
}

// Probe returns the node's instrumentation probe (nil until activated).
func (n *Node) Probe() *dyninst.Probe { return n.probe }

// Refined reports whether the node's children have been generated.
func (n *Node) Refined() bool { return n.refined }

// SHG is the Search History Graph: a DAG of (hypothesis : focus) nodes
// rooted at (TopLevelHypothesis : WholeProgram).
type SHG struct {
	root  *Node
	nodes map[string]*Node
	order []*Node
}

// newSHG creates a graph whose root, true by definition, is (hyp : focus).
func newSHG(hyp *Hypothesis, focus resource.Focus) *SHG {
	root := &Node{Hyp: hyp, Focus: focus, State: StateTrue, Priority: Medium, key: NodeKey(hyp.Name, focus)}
	g := &SHG{root: root, nodes: make(map[string]*Node)}
	g.insert(root)
	return g
}

// Root returns the root node.
func (g *SHG) Root() *Node { return g.root }

// Lookup returns the node for the key, if present.
func (g *SHG) Lookup(key string) (*Node, bool) {
	n, ok := g.nodes[key]
	return n, ok
}

// Nodes returns every node in creation order.
func (g *SHG) Nodes() []*Node {
	out := make([]*Node, len(g.order))
	copy(out, g.order)
	return out
}

// Len returns the number of nodes.
func (g *SHG) Len() int { return len(g.order) }

func (g *SHG) insert(n *Node) {
	n.seq = len(g.order)
	g.nodes[n.key] = n
	g.order = append(g.order, n)
}

// addChild links child under parent, creating the child node if its key is
// new. It returns the canonical node and whether it was newly created.
func (g *SHG) addChild(parent *Node, hyp *Hypothesis, focus resource.Focus, now float64) (*Node, bool) {
	key := NodeKey(hyp.Name, focus)
	if existing, ok := g.nodes[key]; ok {
		if !hasNode(existing.parents, parent) {
			existing.parents = append(existing.parents, parent)
			parent.children = append(parent.children, existing)
		}
		return existing, false
	}
	n := &Node{
		Hyp:       hyp,
		Focus:     focus,
		State:     StatePending,
		Priority:  Medium,
		CreatedAt: now,
		parents:   []*Node{parent},
		key:       key,
	}
	parent.children = append(parent.children, n)
	g.insert(n)
	return n, true
}

func hasNode(list []*Node, n *Node) bool {
	for _, x := range list {
		if x == n {
			return true
		}
	}
	return false
}

// TrueNodes returns the nodes concluded true, ordered by conclusion time.
func (g *SHG) TrueNodes() []*Node {
	var out []*Node
	for _, n := range g.order {
		if n.State == StateTrue {
			out = append(out, n)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].ConcludedAt < out[j].ConcludedAt })
	return out
}

// CountState returns how many nodes are in the given state.
func (g *SHG) CountState(s NodeState) int {
	c := 0
	for _, n := range g.order {
		if n.State == s {
			c++
		}
	}
	return c
}

// Render prints the SHG as an indented list (the paper's Figure 2 list-box
// form), truncating repeat visits of shared nodes.
func (g *SHG) Render() string {
	var b strings.Builder
	seen := make(map[*Node]bool)
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		label := n.Hyp.Name
		if !n.Focus.IsWholeProgram() {
			label += " " + n.Focus.Name()
		}
		fmt.Fprintf(&b, "%s [%s]", label, n.State)
		if n.State == StateTrue || n.State == StateFalse {
			fmt.Fprintf(&b, " value=%.3f", n.Value)
		}
		if seen[n] && len(n.children) > 0 {
			b.WriteString(" ...\n")
			return
		}
		b.WriteByte('\n')
		seen[n] = true
		for _, c := range n.children {
			rec(c, depth+1)
		}
	}
	rec(g.root, 0)
	return b.String()
}
