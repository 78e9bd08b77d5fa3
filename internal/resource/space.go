package resource

import (
	"fmt"
	"sort"
	"strings"
)

// Standard hierarchy names used by the synthetic workloads and the
// Performance Consultant. A Space may contain any set of hierarchies;
// these are the ones Paradyn's resource model defines and the paper uses.
const (
	HierCode       = "Code"
	HierMachine    = "Machine"
	HierProcess    = "Process"
	HierSyncObject = "SyncObject"
)

// StandardHierarchies is the default hierarchy set for a parallel
// message-passing application.
var StandardHierarchies = []string{HierCode, HierMachine, HierProcess, HierSyncObject}

// Space is an ordered collection of resource hierarchies describing one
// program (or one execution of a program). Foci are defined relative to a
// Space: one selection per hierarchy, in Space order.
type Space struct {
	hiers []*Hierarchy
	index map[string]int
}

// NewSpace creates a space with one empty hierarchy per name, in order.
func NewSpace(names ...string) (*Space, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("resource: a space needs at least one hierarchy")
	}
	s := &Space{index: make(map[string]int, len(names))}
	for _, n := range names {
		if _, dup := s.index[n]; dup {
			return nil, fmt.Errorf("resource: duplicate hierarchy %q", n)
		}
		h, err := NewHierarchy(n)
		if err != nil {
			return nil, err
		}
		s.index[n] = len(s.hiers)
		s.hiers = append(s.hiers, h)
	}
	return s, nil
}

// NewStandardSpace creates a space with the Code, Machine, Process and
// SyncObject hierarchies.
func NewStandardSpace() *Space {
	s, err := NewSpace(StandardHierarchies...)
	if err != nil {
		panic(err) // static names; cannot fail
	}
	return s
}

// Hierarchies returns the hierarchies in space order.
func (s *Space) Hierarchies() []*Hierarchy {
	out := make([]*Hierarchy, len(s.hiers))
	copy(out, s.hiers)
	return out
}

// NumHierarchies returns the number of hierarchies in the space.
func (s *Space) NumHierarchies() int { return len(s.hiers) }

// Hierarchy returns the hierarchy with the given name.
func (s *Space) Hierarchy(name string) (*Hierarchy, bool) {
	i, ok := s.index[name]
	if !ok {
		return nil, false
	}
	return s.hiers[i], true
}

// HierarchyIndex returns the space-order index of the named hierarchy.
func (s *Space) HierarchyIndex(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Find resolves a full resource path such as "/Code/oned.f/main" by
// dispatching on the first path component.
func (s *Space) Find(path string) (*Resource, bool) {
	name, _, _ := strings.Cut(strings.TrimPrefix(path, "/"), "/")
	h, ok := s.Hierarchy(name)
	if !ok {
		return nil, false
	}
	return h.Find(path)
}

// Add creates the resource at path (with intermediates) in the hierarchy
// named by the first path component.
func (s *Space) Add(path string) (*Resource, error) {
	parts, err := SplitPath(path)
	if err != nil {
		return nil, err
	}
	h, ok := s.Hierarchy(parts[0])
	if !ok {
		return nil, fmt.Errorf("resource: unknown hierarchy in path %q", path)
	}
	return h.Add(path)
}

// MustAdd is Add but panics on error.
func (s *Space) MustAdd(path string) *Resource {
	r, err := s.Add(path)
	if err != nil {
		panic(err)
	}
	return r
}

// WholeProgram returns the unconstrained focus: the root of every
// hierarchy.
func (s *Space) WholeProgram() Focus {
	sel := make([]*Resource, len(s.hiers))
	for i, h := range s.hiers {
		sel[i] = h.root
	}
	return Focus{space: s, sel: sel}
}

// AllPaths returns every resource path in the space, sorted.
func (s *Space) AllPaths() []string {
	var out []string
	for _, h := range s.hiers {
		out = append(out, h.Paths()...)
	}
	sort.Strings(out)
	return out
}

// Size returns the total number of resources across all hierarchies.
func (s *Space) Size() int {
	n := 0
	for _, h := range s.hiers {
		n += h.Size()
	}
	return n
}

// Focus constrains a performance measurement to part of the program: one
// selected resource per hierarchy. Selecting a hierarchy root leaves that
// view unconstrained. The canonical name lists the selections in space
// order, e.g. "</Code/testutil.C/verifyA,/Machine,/Process/Tester:2>".
type Focus struct {
	space *Space
	sel   []*Resource
}

// Space returns the space this focus is defined in.
func (f Focus) Space() *Space { return f.space }

// Valid reports whether the focus has been initialized from a Space.
func (f Focus) Valid() bool { return f.space != nil && len(f.sel) == len(f.space.hiers) }

// Selection returns the selected resource for the named hierarchy.
func (f Focus) Selection(hierName string) (*Resource, bool) {
	i, ok := f.space.index[hierName]
	if !ok {
		return nil, false
	}
	return f.sel[i], true
}

// SelectionAt returns the selected resource for the i'th hierarchy.
func (f Focus) SelectionAt(i int) *Resource { return f.sel[i] }

// WithSelection returns a copy of f with the selection for the resource's
// hierarchy replaced by that resource.
func (f Focus) WithSelection(r *Resource) (Focus, error) {
	if r == nil {
		return Focus{}, fmt.Errorf("resource: nil selection")
	}
	i, ok := f.space.index[r.Hierarchy().Name()]
	if !ok || f.space.hiers[i] != r.Hierarchy() {
		return Focus{}, fmt.Errorf("resource: %s is not in this space", r.Path())
	}
	return f.With(i, r), nil
}

// With returns a copy of f with its i'th selection replaced by r, which
// must be a resource of the space's i'th hierarchy.
func (f Focus) With(i int, r *Resource) Focus {
	sel := make([]*Resource, len(f.sel))
	copy(sel, f.sel)
	sel[i] = r
	return Focus{space: f.space, sel: sel}
}

// MustWithSelection is WithSelection but panics on error.
func (f Focus) MustWithSelection(r *Resource) Focus {
	g, err := f.WithSelection(r)
	if err != nil {
		panic(err)
	}
	return g
}

// Name returns the canonical focus name.
func (f Focus) Name() string {
	n := 1 + len(f.sel) // '<', the commas, '>'
	for _, r := range f.sel {
		n += len(r.path)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteByte('<')
	for i, r := range f.sel {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(r.path)
	}
	b.WriteByte('>')
	return b.String()
}

// String implements fmt.Stringer.
func (f Focus) String() string { return f.Name() }

// Equal reports whether two foci select exactly the same resources.
func (f Focus) Equal(g Focus) bool {
	if f.space != g.space || len(f.sel) != len(g.sel) {
		return false
	}
	for i := range f.sel {
		if f.sel[i] != g.sel[i] {
			return false
		}
	}
	return true
}

// Contains reports whether g's view is within f's: every selection of f is
// an ancestor-or-self of g's corresponding selection.
func (f Focus) Contains(g Focus) bool {
	if f.space != g.space {
		return false
	}
	for i := range f.sel {
		if !f.sel[i].IsAncestorOrSelf(g.sel[i]) {
			return false
		}
	}
	return true
}

// IsWholeProgram reports whether every selection is a hierarchy root.
func (f Focus) IsWholeProgram() bool {
	for _, r := range f.sel {
		if !r.IsRoot() {
			return false
		}
	}
	return true
}

// Depth returns the total selection depth summed over hierarchies; the
// whole-program focus has depth 0.
func (f Focus) Depth() int {
	d := 0
	for _, r := range f.sel {
		d += r.Depth()
	}
	return d
}

// AllChildren returns the refinement of f along every hierarchy, in space
// order: each focus one edge further down a single hierarchy.
func (f Focus) AllChildren() []Focus {
	var out []Focus
	for i, r := range f.sel {
		for _, c := range r.kids {
			out = append(out, f.With(i, c))
		}
	}
	return out
}

// keyed is how many selections a FocusKey holds by identity: every
// hierarchy of the standard space.
const keyed = 4

// FocusKey is a focus's identity as a comparable value, built without
// the focus's name: its selected resources. A space of more than keyed
// hierarchies spells the selections past them by name.
type FocusKey struct {
	sel  [keyed]*Resource
	rest string
}

// Key returns f's identity: two foci of one space have equal keys
// exactly when they select the same resources.
func (f Focus) Key() FocusKey { return f.KeyWith(-1, nil) }

// KeyWith returns the key of f.With(i, r) without building that focus.
// A negative i keys f itself.
func (f Focus) KeyWith(i int, r *Resource) FocusKey {
	var k FocusKey
	for j, s := range f.sel {
		if j == i {
			s = r
		}
		if j < keyed {
			k.sel[j] = s
		} else {
			k.rest += s.path + ","
		}
	}
	return k
}

// ParseFocus parses a canonical focus name such as
// "< /Code/x, /Machine, /Process/p1 >" (whitespace tolerated) against the
// given space. Every hierarchy of the space must appear exactly once, in
// space order.
func ParseFocus(s *Space, text string) (Focus, error) {
	t := strings.TrimSpace(text)
	if !strings.HasPrefix(t, "<") || !strings.HasSuffix(t, ">") {
		return Focus{}, fmt.Errorf("resource: focus %q must be wrapped in <>", text)
	}
	t = strings.TrimSuffix(strings.TrimPrefix(t, "<"), ">")
	if n := strings.Count(t, ",") + 1; n != len(s.hiers) {
		return Focus{}, fmt.Errorf("resource: focus %q has %d selections, space has %d hierarchies",
			text, n, len(s.hiers))
	}
	sel := make([]*Resource, len(s.hiers))
	for i := range sel {
		var p string
		p, t, _ = strings.Cut(t, ",")
		p = strings.TrimSpace(p)
		r, ok := s.Find(p)
		if !ok {
			return Focus{}, fmt.Errorf("resource: unknown resource %q in focus %q", p, text)
		}
		if r.Hierarchy() != s.hiers[i] {
			return Focus{}, fmt.Errorf("resource: selection %q out of order in focus %q (expected hierarchy %q)",
				p, text, s.hiers[i].Name())
		}
		sel[i] = r
	}
	return Focus{space: s, sel: sel}, nil
}
