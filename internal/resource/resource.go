// Package resource implements Paradyn-style program resource hierarchies.
//
// A program is represented as a collection of discrete resources organized
// into trees called resource hierarchies (Code, Machine, Process,
// SyncObject, ...). A resource name is the concatenation of labels along
// the unique path from the hierarchy root, e.g. "/Code/testutil.C/verifyA".
// A focus selects one resource per hierarchy and constrains a performance
// measurement to the part of the program under those selections.
package resource

import (
	"fmt"
	"sort"
	"strings"
)

// Resource is a node in a resource hierarchy. The zero value is not usable;
// resources are created via Hierarchy.Add or Resource.AddChild so that
// parent links and depth stay consistent.
type Resource struct {
	label    string
	path     string // fixed at creation: label and parent never change
	parent   *Resource
	children map[string]*Resource
	order    []string
	hier     *Hierarchy
	depth    int
}

// Label returns the resource's own label (the last path component).
func (r *Resource) Label() string { return r.label }

// Parent returns the parent resource, or nil for a hierarchy root.
func (r *Resource) Parent() *Resource { return r.parent }

// Hierarchy returns the hierarchy this resource belongs to.
func (r *Resource) Hierarchy() *Hierarchy { return r.hier }

// Depth returns the number of edges from the hierarchy root (root = 0).
func (r *Resource) Depth() int { return r.depth }

// IsRoot reports whether the resource is a hierarchy root.
func (r *Resource) IsRoot() bool { return r.parent == nil }

// Path returns the canonical resource name, e.g. "/Code/oned.f/main".
func (r *Resource) Path() string { return r.path }

// String implements fmt.Stringer.
func (r *Resource) String() string { return r.Path() }

// AddChild returns the child with the given label, creating it if needed.
// The label must not contain '/' or ','.
func (r *Resource) AddChild(label string) (*Resource, error) {
	if err := validateLabel(label); err != nil {
		return nil, err
	}
	if c, ok := r.children[label]; ok {
		return c, nil
	}
	c := &Resource{
		label:    label,
		path:     r.path + "/" + label,
		parent:   r,
		children: make(map[string]*Resource),
		hier:     r.hier,
		depth:    r.depth + 1,
	}
	r.children[label] = c
	r.order = append(r.order, label)
	r.hier.size++
	return c, nil
}

// MustAddChild is AddChild but panics on an invalid label. It is intended
// for statically known workload definitions.
func (r *Resource) MustAddChild(label string) *Resource {
	c, err := r.AddChild(label)
	if err != nil {
		panic(err)
	}
	return c
}

// Child returns the direct child with the given label.
func (r *Resource) Child(label string) (*Resource, bool) {
	c, ok := r.children[label]
	return c, ok
}

// Children returns the direct children in insertion order.
func (r *Resource) Children() []*Resource {
	out := make([]*Resource, 0, len(r.order))
	for _, l := range r.order {
		out = append(out, r.children[l])
	}
	return out
}

// NumChildren returns the number of direct children.
func (r *Resource) NumChildren() int { return len(r.children) }

// IsLeaf reports whether the resource has no children.
func (r *Resource) IsLeaf() bool { return len(r.children) == 0 }

// Leaves returns all leaf resources under (and possibly including) r,
// in depth-first insertion order.
func (r *Resource) Leaves() []*Resource {
	var out []*Resource
	r.Walk(func(n *Resource) bool {
		if n.IsLeaf() {
			out = append(out, n)
		}
		return true
	})
	return out
}

// Walk visits r and all descendants depth-first in insertion order.
// The visitor returns false to skip a node's subtree.
func (r *Resource) Walk(visit func(*Resource) bool) {
	if !visit(r) {
		return
	}
	for _, l := range r.order {
		r.children[l].Walk(visit)
	}
}

// IsAncestorOrSelf reports whether r is other or an ancestor of other.
// Both resources must belong to the same hierarchy for a true result.
func (r *Resource) IsAncestorOrSelf(other *Resource) bool {
	for n := other; n != nil; n = n.parent {
		if n == r {
			return true
		}
	}
	return false
}

// Hierarchy is a named tree of resources. The root node carries the
// hierarchy's name as its label (e.g. "Code").
type Hierarchy struct {
	root *Resource
	size int // total number of resources including the root
}

// NewHierarchy creates a hierarchy whose root is labeled name.
func NewHierarchy(name string) (*Hierarchy, error) {
	if err := validateLabel(name); err != nil {
		return nil, err
	}
	h := &Hierarchy{}
	h.root = &Resource{
		label:    name,
		path:     "/" + name,
		children: make(map[string]*Resource),
		hier:     h,
	}
	h.size = 1
	return h, nil
}

// Name returns the hierarchy name (the root label).
func (h *Hierarchy) Name() string { return h.root.label }

// Root returns the hierarchy's root resource.
func (h *Hierarchy) Root() *Resource { return h.root }

// Size returns the total number of resources in the hierarchy.
func (h *Hierarchy) Size() int { return h.size }

// Find resolves a path like "/Code/oned.f/main" within this hierarchy.
func (h *Hierarchy) Find(path string) (*Resource, bool) {
	parts, err := SplitPath(path)
	if err != nil || len(parts) == 0 || parts[0] != h.Name() {
		return nil, false
	}
	n := h.root
	for _, p := range parts[1:] {
		c, ok := n.children[p]
		if !ok {
			return nil, false
		}
		n = c
	}
	return n, true
}

// Add creates (idempotently) the resource at path, including intermediate
// nodes. The path's first component must equal the hierarchy name.
func (h *Hierarchy) Add(path string) (*Resource, error) {
	parts, err := SplitPath(path)
	if err != nil {
		return nil, err
	}
	if len(parts) == 0 || parts[0] != h.Name() {
		return nil, fmt.Errorf("resource: path %q is not in hierarchy %q", path, h.Name())
	}
	n := h.root
	for _, p := range parts[1:] {
		n, err = n.AddChild(p)
		if err != nil {
			return nil, err
		}
	}
	return n, nil
}

// MustAdd is Add but panics on error.
func (h *Hierarchy) MustAdd(path string) *Resource {
	r, err := h.Add(path)
	if err != nil {
		panic(err)
	}
	return r
}

// Paths returns the canonical names of every resource in the hierarchy,
// sorted lexically. Useful for serialization and execution maps.
func (h *Hierarchy) Paths() []string {
	var out []string
	h.root.Walk(func(r *Resource) bool {
		out = append(out, r.Path())
		return true
	})
	sort.Strings(out)
	return out
}

// SplitPath splits "/Code/a/b" into ["Code","a","b"], validating shape.
func SplitPath(path string) ([]string, error) {
	if !strings.HasPrefix(path, "/") {
		return nil, fmt.Errorf("resource: path %q must start with '/'", path)
	}
	trimmed := strings.TrimPrefix(path, "/")
	if trimmed == "" {
		return nil, fmt.Errorf("resource: empty path %q", path)
	}
	parts := strings.Split(trimmed, "/")
	for _, p := range parts {
		if p == "" {
			return nil, fmt.Errorf("resource: path %q has an empty component", path)
		}
		if strings.Contains(p, ",") {
			return nil, fmt.Errorf("resource: path component %q contains ','", p)
		}
	}
	return parts, nil
}

func validateLabel(label string) error {
	if label == "" {
		return fmt.Errorf("resource: empty label")
	}
	if strings.ContainsAny(label, "/,<>") {
		return fmt.Errorf("resource: label %q contains a reserved character", label)
	}
	if strings.TrimSpace(label) != label {
		return fmt.Errorf("resource: label %q has leading or trailing space", label)
	}
	return nil
}
