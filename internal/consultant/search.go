package consultant

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/resource"
)

// SearchPolicy selects what the Performance Consultant examines next when
// several pending pairs have equal priority.
type SearchPolicy int

// Search policies. BreadthFirst (the default, and Paradyn's behaviour)
// works through refinements level by level in creation order; DepthFirst
// drills into the children of the most recent true conclusions first,
// reaching specific diagnoses sooner at the price of breadth.
const (
	BreadthFirst SearchPolicy = iota
	DepthFirst
)

// String implements fmt.Stringer.
func (p SearchPolicy) String() string {
	switch p {
	case BreadthFirst:
		return "breadth-first"
	case DepthFirst:
		return "depth-first"
	default:
		return fmt.Sprintf("SearchPolicy(%d)", int(p))
	}
}

// HF names a (hypothesis : focus) pair in guidance data.
type HF struct {
	Hyp   string
	Focus resource.Focus
}

// Guidance is the search-directive hook: the compiled form of the prune,
// priority and threshold directives harvested from historical runs. A
// zero Guidance reproduces the stock single-button Performance Consultant.
// The hooks are handed each pair's focus name (f.Name()), built once
// when the pair is.
type Guidance struct {
	// Prune reports whether the (hypothesis : focus) pair (and therefore
	// its whole refinement subtree) should be ignored.
	Prune func(hyp string, f resource.Focus, name string) bool
	// Priority returns the search priority of the pair (hypothesis : the
	// focus named name); nil means Medium for everything.
	Priority func(hyp, name string) Priority
	// HighPairs lists the pairs to instrument immediately at search start
	// and test persistently throughout the run.
	HighPairs []HF
	// Thresholds overrides hypothesis default thresholds by name.
	Thresholds map[string]float64
}

func (g Guidance) prune(hyp string, f resource.Focus, name string) bool {
	return g.Prune != nil && g.Prune(hyp, f, name)
}

func (g Guidance) priority(hyp, name string) Priority {
	if g.Priority == nil {
		return Medium
	}
	return g.Priority(hyp, name)
}

// Search is the Performance Consultant's top-down search with the
// measuring taken out: the Search History Graph, the guidance applied as
// pairs are created, the seeding, the refinement of true pairs and the
// queue of pairs waiting to be tested. It has no clock, does no I/O and
// does not know where a value comes from. The online Consultant (probes
// under a cost limit), the postmortem evaluator (a whole trace) and the
// streaming engine (the trace so far) each drive one.
type Search struct {
	guid     Guidance
	policy   SearchPolicy
	maxNodes int
	shg      *SHG
	// queue holds every StatePending pair (and, until Pending next
	// compacts it, pairs that have since left that state).
	queue []*Node
}

// NewSearch creates a search over space rooted at hypRoot (typically
// StandardHypotheses()). maxNodes caps the graph's size (<= 0 means the
// default).
func NewSearch(space *resource.Space, hypRoot *Hypothesis, guid Guidance, policy SearchPolicy, maxNodes int) (*Search, error) {
	if hypRoot == nil || len(hypRoot.Children) == 0 {
		return nil, fmt.Errorf("consultant: hypothesis root must have children")
	}
	if maxNodes <= 0 {
		maxNodes = DefaultConfig().MaxNodes
	}
	// The root is true by definition.
	return &Search{guid: guid, policy: policy, maxNodes: maxNodes, shg: newSHG(hypRoot, space.WholeProgram())}, nil
}

// SHG returns the Search History Graph.
func (s *Search) SHG() *SHG { return s.shg }

// Steer replaces the guidance applied to pairs created from now on.
func (s *Search) Steer(guid Guidance) { s.guid = guid }

// Threshold returns the effective threshold for a hypothesis.
func (s *Search) Threshold(h *Hypothesis) float64 {
	if v, ok := s.guid.Thresholds[h.Name]; ok {
		return v
	}
	return h.DefaultThreshold
}

// Seed queues the top-level hypotheses at the whole-program focus, plus
// every High-priority pair from guidance (tested immediately and
// persistently, ahead of the normal top-down order). Like Refine it may
// be repeated: pairs the graph already holds are left as they are.
func (s *Search) Seed(now float64) {
	root := s.shg.Root()
	s.Refine(root, now)
	for _, hf := range s.guid.HighPairs {
		h := root.Hyp.Find(hf.Hyp)
		if h == nil || h == root.Hyp {
			continue
		}
		key := nodeKey{h, hf.Focus.Key()}
		n := s.shg.nodes[key]
		created := n == nil
		var name string
		if created {
			name = hf.Focus.Name()
		} else {
			name = n.name
		}
		if s.guid.prune(hf.Hyp, hf.Focus, name) {
			continue
		}
		if created {
			n = s.shg.create(h, hf.Focus, key, name, now)
		}
		link(root, n)
		if n.State != StatePending {
			continue
		}
		n.Priority, n.Persistent = High, true
		if created {
			s.queue = append(s.queue, n)
		}
	}
}

// Refine expands a true node: a more specific hypothesis at the same
// focus, and a more specific focus (one edge down each relevant
// hierarchy) for the same hypothesis. Refining a node again, after the
// space has grown, queues only the pairs the graph does not hold yet.
// A child the graph holds is found by its key alone: only a new pair
// builds its focus and its name.
func (s *Search) Refine(n *Node, now float64) {
	n.refined = true
	sp := n.Focus.Space()
	// Room for every refinement at once; those linked before are among them.
	more := len(n.Hyp.Children) - len(n.children)
	for _, hierName := range n.Hyp.RelevantHierarchies {
		if i, ok := sp.HierarchyIndex(hierName); ok {
			more += n.Focus.SelectionAt(i).NumChildren()
		}
	}
	n.children = slices.Grow(n.children, max(more, 0))
	for _, ch := range n.Hyp.Children {
		s.spawn(n, ch, -1, nil, now)
	}
	for _, hierName := range n.Hyp.RelevantHierarchies {
		i, ok := sp.HierarchyIndex(hierName)
		if !ok {
			continue
		}
		for _, c := range n.Focus.SelectionAt(i).Children() {
			s.spawn(n, n.Hyp, i, c, now)
		}
	}
}

// spawn creates (or links) under parent the pair (h : parent's focus with
// its i'th selection replaced by c, or parent's focus itself when c is
// nil), applying prune and priority directives to a new pair.
func (s *Search) spawn(parent *Node, h *Hypothesis, i int, c *resource.Resource, now float64) {
	if s.shg.Len() >= s.maxNodes {
		return
	}
	key := nodeKey{h, parent.key.focus}
	if c != nil {
		key.focus = parent.Focus.KeyWith(i, c)
	}
	if n := s.shg.nodes[key]; n != nil {
		link(parent, n)
		return
	}
	f := parent.Focus
	if c != nil {
		f = f.With(i, c)
	}
	name := f.Name()
	n := s.shg.create(h, f, key, name, now)
	link(parent, n)
	if s.guid.prune(h.Name, f, name) {
		n.State = StatePruned
		return
	}
	n.Priority = s.guid.priority(h.Name, name)
	n.Persistent = n.Priority == High
	s.queue = append(s.queue, n)
}

// Waiting reports whether any pair is queued.
func (s *Search) Waiting() bool {
	return slices.ContainsFunc(s.queue, func(n *Node) bool { return n.State == StatePending })
}

// Pending returns the queued pairs in search order: by priority, then by
// policy, then by creation. A pair leaves the queue by leaving
// StatePending. The slice is the search's own, valid until the next call.
func (s *Search) Pending() []*Node {
	s.queue = slices.DeleteFunc(s.queue, func(n *Node) bool { return n.State != StatePending })
	slices.SortFunc(s.queue, func(a, b *Node) int {
		if a.Priority != b.Priority {
			return cmp.Compare(b.Priority, a.Priority)
		}
		if s.policy == DepthFirst {
			if da, db := a.Focus.Depth(), b.Focus.Depth(); da != db {
				return cmp.Compare(db, da)
			}
			return cmp.Compare(b.seq, a.seq) // most recently spawned first
		}
		return cmp.Compare(a.seq, b.seq)
	})
	return s.queue
}

// Conclude draws (or, for a pair tested again, re-draws) the conclusion
// from a measured value: true above the effective threshold, and a pair
// that turns true is refined.
func (s *Search) Conclude(n *Node, value, now float64) {
	n.Value, n.Threshold = value, s.Threshold(n.Hyp)
	state := StateFalse
	if value > n.Threshold {
		state = StateTrue
	}
	if state == n.State {
		return
	}
	n.State, n.ConcludedAt = state, now
	if state == StateTrue {
		s.Refine(n, now)
	}
}

// Unmeasurable concludes false a pair no value can be had for, recording
// the threshold it would have been held to, as a trace diagnosis always
// has. (The online Consultant, whose unmeasurable pairs never got as far
// as a probe, records none.)
func (s *Search) Unmeasurable(n *Node, now float64) {
	n.Threshold = s.Threshold(n.Hyp)
	n.State, n.ConcludedAt = StateFalse, now
}
