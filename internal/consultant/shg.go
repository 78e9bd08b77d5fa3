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
	key     nodeKey
	name    string // Focus.Name(), built when the node is

	// mt is the pair's compiled matcher, or mtErr why it has none;
	// compiled at the pair's first measurement (mtDone).
	mt     dyninst.Matcher
	mtErr  error
	mtDone bool

	parents  []*Node
	parent0  [1]*Node // parents' first array: most pairs have one parent
	children []*Node
}

// nodeKey identifies a pair in the graph without naming it: the
// hypothesis and the focus's selected resources.
type nodeKey struct {
	hyp   *Hypothesis
	focus resource.FocusKey
}

// Key returns the node's unique name in the graph: its hypothesis's name
// and its focus's, separated by a space.
func (n *Node) Key() string { return n.Hyp.Name + " " + n.name }

// FocusName returns the canonical name of the node's focus.
func (n *Node) FocusName() string { return n.name }

// Matcher returns the pair's compiled (metric : focus) matcher: the one
// compile of the pair, made at its first measurement, which every driver
// measures it by — the online consultant's cost and probe, and a trace's
// evaluation. An error means the focus is structurally unmeasurable (see
// dyninst.ErrTooDeep); the driver concludes it with Search.Unmeasurable.
func (n *Node) Matcher() (*dyninst.Matcher, error) {
	if !n.mtDone {
		n.mt, n.mtErr = dyninst.Compile(n.Hyp.Metric, n.Focus)
		n.mtDone = true
	}
	if n.mtErr != nil {
		return nil, n.mtErr
	}
	return &n.mt, nil
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

// SHG is the Search History Graph: a DAG of (hypothesis : focus) nodes
// rooted at (TopLevelHypothesis : WholeProgram). A node's identity, its
// focus's name and its matcher are built once, when the node is: finding
// a pair the graph holds builds nothing.
type SHG struct {
	root  *Node
	nodes map[nodeKey]*Node
	order []*Node
}

// newSHG creates a graph whose root, true by definition, is (hyp : focus).
func newSHG(hyp *Hypothesis, focus resource.Focus) *SHG {
	g := &SHG{nodes: make(map[nodeKey]*Node)}
	g.root = g.create(hyp, focus, nodeKey{hyp, focus.Key()}, focus.Name(), 0)
	g.root.State = StateTrue
	return g
}

// Root returns the root node.
func (g *SHG) Root() *Node { return g.root }

// Lookup returns the node of the pair (the hypothesis named hyp in the
// graph's tree : focus), if the graph holds it.
func (g *SHG) Lookup(hyp string, focus resource.Focus) (*Node, bool) {
	n, ok := g.nodes[nodeKey{g.root.Hyp.Find(hyp), focus.Key()}]
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

// create adds the pending pair (hyp : focus), keyed key and named name,
// with no parent yet.
func (g *SHG) create(hyp *Hypothesis, focus resource.Focus, key nodeKey, name string, now float64) *Node {
	n := &Node{
		Hyp:       hyp,
		Focus:     focus,
		State:     StatePending,
		Priority:  Medium,
		CreatedAt: now,
		seq:       len(g.order),
		key:       key,
		name:      name,
	}
	n.parents = n.parent0[:0]
	g.nodes[key] = n
	g.order = append(g.order, n)
	return n
}

// link makes child a refinement of parent, once.
func link(parent, child *Node) {
	if !hasNode(child.parents, parent) {
		child.parents = append(child.parents, parent)
		parent.children = append(parent.children, child)
	}
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
			label += " " + n.name
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
