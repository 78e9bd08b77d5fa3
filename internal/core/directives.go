// Package core implements the paper's contribution: harvesting historical
// performance data into search directives — prunes, priorities and
// thresholds — that direct the Performance Consultant's online bottleneck
// search, plus the resource-name mapping that lets directives from one
// execution be applied to another.
package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/consultant"
	"repro/internal/resource"
)

// AnyHypothesis is the wildcard hypothesis name in prune directives.
const AnyHypothesis = "*"

// Prune instructs the consultant to ignore bottleneck tests. Two forms
// exist:
//
//   - Subtree prunes (Path set): ignore the subtree of a resource
//     hierarchy rooted at Path when evaluating Hypothesis (or every
//     hypothesis, for AnyHypothesis). A pair is pruned when its focus
//     selection in Path's hierarchy is a non-root resource within that
//     subtree; pruning a hierarchy root (e.g. "/Machine") removes all
//     refinement into that hierarchy without touching the unconstrained
//     view.
//   - Pair prunes (Focus set): ignore exactly one (hypothesis : focus)
//     pair — used to skip pairs that tested false in previous runs.
//
// Exactly one of Path and Focus is set.
type Prune struct {
	Hypothesis string `json:"hyp"`
	Path       string `json:"path,omitempty"`
	Focus      string `json:"focus,omitempty"`
}

// PriorityDirective assigns a search priority to one
// (hypothesis : focus) pair.
type PriorityDirective struct {
	Hypothesis string              `json:"hyp"`
	Focus      string              `json:"focus"` // canonical focus name
	Level      consultant.Priority `json:"level"`
}

// ThresholdDirective overrides one hypothesis's test threshold.
type ThresholdDirective struct {
	Hypothesis string  `json:"hyp"`
	Value      float64 `json:"value"`
}

// Mapping declares two resource names from different executions
// equivalent: every occurrence of the From path (as a whole resource or a
// path prefix) in a directive is rewritten to To.
type Mapping struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// DirectiveSet is the harvest of one or more historical executions.
type DirectiveSet struct {
	Source     string               `json:"source,omitempty"`
	Prunes     []Prune              `json:"prunes,omitempty"`
	Priorities []PriorityDirective  `json:"priorities,omitempty"`
	Thresholds []ThresholdDirective `json:"thresholds,omitempty"`
}

// Clone returns a deep copy.
func (ds *DirectiveSet) Clone() *DirectiveSet {
	out := &DirectiveSet{Source: ds.Source}
	out.Prunes = append(out.Prunes, ds.Prunes...)
	out.Priorities = append(out.Priorities, ds.Priorities...)
	out.Thresholds = append(out.Thresholds, ds.Thresholds...)
	return out
}

// equal reports whether ds and other hold the same directives in the
// same order.
func (ds *DirectiveSet) equal(other *DirectiveSet) bool {
	return ds.Source == other.Source && slices.Equal(ds.Prunes, other.Prunes) &&
		slices.Equal(ds.Priorities, other.Priorities) && slices.Equal(ds.Thresholds, other.Thresholds)
}

// Len returns the total number of directives.
func (ds *DirectiveSet) Len() int {
	return len(ds.Prunes) + len(ds.Priorities) + len(ds.Thresholds)
}

// Sort orders the directives deterministically.
func (ds *DirectiveSet) Sort() {
	sort.Slice(ds.Prunes, func(i, j int) bool {
		if ds.Prunes[i].Hypothesis != ds.Prunes[j].Hypothesis {
			return ds.Prunes[i].Hypothesis < ds.Prunes[j].Hypothesis
		}
		if ds.Prunes[i].Path != ds.Prunes[j].Path {
			return ds.Prunes[i].Path < ds.Prunes[j].Path
		}
		return ds.Prunes[i].Focus < ds.Prunes[j].Focus
	})
	sort.Slice(ds.Priorities, func(i, j int) bool {
		if ds.Priorities[i].Hypothesis != ds.Priorities[j].Hypothesis {
			return ds.Priorities[i].Hypothesis < ds.Priorities[j].Hypothesis
		}
		return ds.Priorities[i].Focus < ds.Priorities[j].Focus
	})
	sort.Slice(ds.Thresholds, func(i, j int) bool {
		return ds.Thresholds[i].Hypothesis < ds.Thresholds[j].Hypothesis
	})
}

// Guide is a directive set compiled into everything of its guidance that
// no resource space decides: the prune and priority tables, the
// thresholds, and the High pairs still to be resolved. It is read-only
// once built, so one Guide serves every session its set steers, each
// binding it to its own space.
//
// Prune and priority matching is by canonical resource *name*, not by
// resolved resource identity, so directives that refer to resources the
// tool has not discovered yet take effect the moment the Performance
// Consultant generates a focus with that name — the paper's "cases in
// which new resources are discovered later in an application run".
type Guide struct {
	pairPrunes map[pair]bool
	prunes     []subtreePrune
	prio       map[pair]consultant.Priority
	high       []pair // High priorities, focus as the directive spells it
	thresholds map[string]float64
	malformed  int
}

// pair is one (hypothesis : focus) pair, focus by name.
type pair struct{ hyp, focus string }

// subtreePrune is a prune of the subtree at path, in hierarchy hier.
type subtreePrune struct{ hyp, hier, path string }

// Compile builds ds's Guide. A malformed entry is counted, not kept.
func (ds *DirectiveSet) Compile() *Guide {
	g := &Guide{thresholds: make(map[string]float64, len(ds.Thresholds))}
	for _, p := range ds.Prunes {
		if p.Focus != "" {
			name, err := normalizeFocusName(p.Focus)
			if err != nil {
				g.malformed++
				continue
			}
			if g.pairPrunes == nil {
				g.pairPrunes = make(map[pair]bool)
			}
			g.pairPrunes[pair{p.Hypothesis, name}] = true
			continue
		}
		parts, err := resource.SplitPath(p.Path)
		if err != nil {
			g.malformed++
			continue
		}
		g.prunes = append(g.prunes, subtreePrune{hyp: p.Hypothesis, hier: parts[0], path: p.Path})
	}
	for _, p := range ds.Priorities {
		name, err := normalizeFocusName(p.Focus)
		if err != nil {
			g.malformed++
			continue
		}
		if g.prio == nil {
			g.prio = make(map[pair]consultant.Priority, len(ds.Priorities))
		}
		g.prio[pair{p.Hypothesis, name}] = p.Level
		if p.Level == consultant.High {
			g.high = append(g.high, pair{p.Hypothesis, p.Focus})
		}
	}
	for _, t := range ds.Thresholds {
		g.thresholds[t.Hypothesis] = t.Value
	}
	return g
}

// Bind resolves g against space: only High-priority pairs must resolve
// immediately (they are instrumented at search start). The returned
// count is the number of directives that could not take effect at start
// — malformed entries plus High pairs naming unknown resources (those
// still act as priorities if the pair is reached top-down later).
func (g *Guide) Bind(space *resource.Space) (consultant.Guidance, int) {
	return g.NewBinding(space).Guidance()
}

// Binding is a Guide bound to one space that grows, as a stream's does
// while it discovers resources. Resources are never taken out of a
// space, so a High pair that resolved once stays resolved: each
// Guidance call parses only the pairs no earlier call could resolve.
type Binding struct {
	g     *Guide
	space *resource.Space
	foci  []resource.Focus // per g.high entry; not Valid until it resolves
	guid  consultant.Guidance
}

// NewBinding binds g to space, which may grow between Guidance calls.
func (g *Guide) NewBinding(space *resource.Space) *Binding {
	b := &Binding{g: g, space: space, foci: make([]resource.Focus, len(g.high))}
	b.guid.Thresholds = maps.Clone(g.thresholds)
	if len(g.prunes) > 0 || len(g.pairPrunes) > 0 {
		b.guid.Prune = g.prune
	}
	if len(g.prio) > 0 {
		b.guid.Priority = g.priority
	}
	return b
}

// Guidance returns the guidance bound to the space as it is now, and
// the count Bind returns. Its High pairs are what Bind of the space as
// it is now would give, in the same order.
func (b *Binding) Guidance() (consultant.Guidance, int) {
	skipped := b.g.malformed
	resolved := false
	for i, p := range b.g.high {
		if b.foci[i].Valid() {
			continue
		}
		f, err := resource.ParseFocus(b.space, p.focus)
		if err != nil {
			skipped++
			continue
		}
		b.foci[i], resolved = f, true
	}
	if resolved {
		// A new slice: a search steered by the last Guidance reads that one.
		var high []consultant.HF
		for i, f := range b.foci {
			if f.Valid() {
				high = append(high, consultant.HF{Hyp: b.g.high[i].hyp, Focus: f})
			}
		}
		b.guid.HighPairs = high
	}
	return b.guid, skipped
}

func (g *Guide) prune(hyp string, f resource.Focus, name string) bool {
	if len(g.pairPrunes) > 0 && g.pairPrunes[pair{hyp, name}] {
		return true
	}
	for _, p := range g.prunes {
		if p.hyp != AnyHypothesis && p.hyp != hyp {
			continue
		}
		sel, ok := f.Selection(p.hier)
		if !ok || sel.IsRoot() {
			continue
		}
		// sel is p.path or lies below it.
		if selPath := sel.Path(); strings.HasPrefix(selPath, p.path) && (len(selPath) == len(p.path) || selPath[len(p.path)] == '/') {
			return true
		}
	}
	return false
}

func (g *Guide) priority(hyp, name string) consultant.Priority {
	if lv, ok := g.prio[pair{hyp, name}]; ok {
		return lv
	}
	return consultant.Medium
}

// normalizeFocusName canonicalizes a focus name's whitespace so that
// name-based directive matching is robust to formatting. Guidance runs
// it over every priority and pair prune, and nearly all arrive canonical
// (the form Focus.Name and the directive writer emit), so a name the
// scan finds canonical is returned as it is, unallocated.
func normalizeFocusName(focus string) (string, error) {
	if isCanonicalFocusName(focus) {
		return focus, nil
	}
	paths, err := focusPaths(focus)
	if err != nil {
		return "", err
	}
	for _, p := range paths {
		if _, err := resource.SplitPath(p); err != nil {
			return "", err
		}
	}
	return "<" + strings.Join(paths, ",") + ">", nil
}

// isCanonicalFocusName reports whether normalizeFocusName's allocating
// path would rebuild focus byte for byte: "<" path {"," path} ">". It
// errs towards no: a path ending in a control or non-ASCII byte, like
// every invalid name, is left to that path.
func isCanonicalFocusName(focus string) bool {
	n := len(focus)
	if n < 2 || focus[0] != '<' || focus[n-1] != '>' {
		return false
	}
	prev := byte(',') // a path starts after '<' as after ','
	for i := 1; i < n; i++ {
		c := focus[i]
		if i == n-1 {
			c = ',' // and ends at '>' as at ','
		}
		switch {
		case prev == ',' && c != '/', // a path is "/"-led,
			prev == '/' && (c == '/' || c == ','),     // none of its components is empty,
			c == ',' && (prev <= ' ' || prev >= 0x80): // and TrimSpace would leave its end alone
			return false
		}
		prev = c
	}
	return true
}

// focusPaths splits a canonical focus name into its selection paths.
func focusPaths(focus string) ([]string, error) {
	t := strings.TrimSpace(focus)
	if !strings.HasPrefix(t, "<") || !strings.HasSuffix(t, ">") {
		return nil, fmt.Errorf("core: focus %q must be wrapped in <>", focus)
	}
	t = strings.TrimSuffix(strings.TrimPrefix(t, "<"), ">")
	parts := strings.Split(t, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts, nil
}
