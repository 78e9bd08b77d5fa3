package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/consultant"
	"repro/internal/resource"
)

func testSpace(t *testing.T) *resource.Space {
	t.Helper()
	sp := resource.NewStandardSpace()
	sp.MustAdd("/Code/oned.f/main")
	sp.MustAdd("/Code/oned.f/setup")
	sp.MustAdd("/Code/util.f/clock")
	sp.MustAdd("/Machine/sp01")
	sp.MustAdd("/Machine/sp02")
	sp.MustAdd("/Process/p1")
	sp.MustAdd("/Process/p2")
	sp.MustAdd("/SyncObject/Message/tag_3_0")
	return sp
}

func focusName(t *testing.T, sp *resource.Space, paths ...string) string {
	t.Helper()
	f := sp.WholeProgram()
	for _, p := range paths {
		r, ok := sp.Find(p)
		if !ok {
			t.Fatalf("missing %s", p)
		}
		f = f.MustWithSelection(r)
	}
	return f.Name()
}

func TestSubtreePruneSemantics(t *testing.T) {
	sp := testSpace(t)
	ds := &DirectiveSet{Prunes: []Prune{
		{Hypothesis: consultant.CPUBound, Path: "/SyncObject"},
		{Hypothesis: AnyHypothesis, Path: "/Code/util.f"},
	}}
	g, skipped := ds.Compile().Bind(sp)
	if skipped != 0 {
		t.Fatalf("skipped = %d", skipped)
	}
	parse := func(name string) resource.Focus {
		f, err := resource.ParseFocus(sp, name)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	msg := parse(focusName(t, sp, "/SyncObject/Message"))
	if !g.Prune(consultant.CPUBound, msg) {
		t.Error("CPU x Message not pruned")
	}
	if g.Prune(consultant.ExcessiveSync, msg) {
		t.Error("Sync x Message pruned by a CPU-only directive")
	}
	// The unconstrained view is never pruned (root selection).
	if g.Prune(consultant.CPUBound, sp.WholeProgram()) {
		t.Error("whole program pruned")
	}
	util := parse(focusName(t, sp, "/Code/util.f"))
	clock := parse(focusName(t, sp, "/Code/util.f/clock"))
	other := parse(focusName(t, sp, "/Code/oned.f"))
	if !g.Prune(consultant.ExcessiveSync, util) || !g.Prune(consultant.CPUBound, clock) {
		t.Error("wildcard subtree prune failed")
	}
	if g.Prune(consultant.CPUBound, other) {
		t.Error("sibling module pruned")
	}
}

func TestPairPruneSemantics(t *testing.T) {
	sp := testSpace(t)
	fname := focusName(t, sp, "/Process/p1")
	ds := &DirectiveSet{Prunes: []Prune{{Hypothesis: consultant.CPUBound, Focus: fname}}}
	g, skipped := ds.Compile().Bind(sp)
	if skipped != 0 {
		t.Fatalf("skipped = %d", skipped)
	}
	f, _ := resource.ParseFocus(sp, fname)
	if !g.Prune(consultant.CPUBound, f) {
		t.Error("pair prune did not match")
	}
	if g.Prune(consultant.ExcessiveSync, f) {
		t.Error("pair prune matched the wrong hypothesis")
	}
	// A deeper focus is NOT pruned by a pair prune.
	deeper, _ := resource.ParseFocus(sp, focusName(t, sp, "/Process/p1", "/Code/oned.f"))
	if g.Prune(consultant.CPUBound, deeper) {
		t.Error("pair prune matched a refinement")
	}
}

func TestGuidanceSkipsOnlyUnstartableDirectives(t *testing.T) {
	sp := testSpace(t)
	ds := &DirectiveSet{
		Prunes: []Prune{
			{Hypothesis: AnyHypothesis, Path: "/Code/ghost.f"},                                  // unknown but valid: kept for late discovery
			{Hypothesis: AnyHypothesis, Path: "bad path"},                                       // malformed: skipped
			{Hypothesis: AnyHypothesis, Focus: "</Code/ghost.f,/Machine,/Process,/SyncObject>"}, // kept (name-based)
			{Hypothesis: AnyHypothesis, Focus: "not a focus"},                                   // malformed: skipped
		},
		Priorities: []PriorityDirective{
			{Hypothesis: consultant.CPUBound, Focus: "</Code/ghost.f,/Machine,/Process,/SyncObject>", Level: consultant.High}, // cannot pre-instrument: skipped
			{Hypothesis: consultant.CPUBound, Focus: focusName(t, sp, "/Process/p1"), Level: consultant.High},
		},
	}
	g, skipped := ds.Compile().Bind(sp)
	if skipped != 3 {
		t.Errorf("skipped = %d, want 3 (two malformed + one unstartable high pair)", skipped)
	}
	if len(g.HighPairs) != 1 {
		t.Errorf("HighPairs = %d, want 1", len(g.HighPairs))
	}
}

func TestGuidanceAppliesToLateDiscoveredResources(t *testing.T) {
	// The paper's future-work case: a directive names a resource the tool
	// has not discovered yet. Because matching is name-based, the
	// directive takes effect the moment a focus with that name appears.
	sp := testSpace(t)
	ds := &DirectiveSet{
		Prunes: []Prune{{Hypothesis: AnyHypothesis, Path: "/Code/late.f"}},
		Priorities: []PriorityDirective{
			{Hypothesis: consultant.ExcessiveSync, Focus: "</Code/late.f/hot,/Machine,/Process,/SyncObject>", Level: consultant.High},
		},
	}
	g, _ := ds.Compile().Bind(sp)
	// Discover the resource after guidance compilation.
	late := sp.MustAdd("/Code/late.f/hot")
	f := sp.WholeProgram().MustWithSelection(late)
	if !g.Prune(consultant.CPUBound, f) {
		t.Error("subtree prune did not apply to a late-discovered resource")
	}
	if g.Priority(consultant.ExcessiveSync, f) != consultant.High {
		t.Error("priority did not apply to a late-discovered resource")
	}
}

func TestGuidancePriorities(t *testing.T) {
	sp := testSpace(t)
	p1 := focusName(t, sp, "/Process/p1")
	p2 := focusName(t, sp, "/Process/p2")
	ds := &DirectiveSet{Priorities: []PriorityDirective{
		{Hypothesis: consultant.CPUBound, Focus: p1, Level: consultant.High},
		{Hypothesis: consultant.CPUBound, Focus: p2, Level: consultant.Low},
	}}
	g, _ := ds.Compile().Bind(sp)
	f1, _ := resource.ParseFocus(sp, p1)
	f2, _ := resource.ParseFocus(sp, p2)
	if g.Priority(consultant.CPUBound, f1) != consultant.High {
		t.Error("high priority not applied")
	}
	if g.Priority(consultant.CPUBound, f2) != consultant.Low {
		t.Error("low priority not applied")
	}
	if g.Priority(consultant.ExcessiveSync, f1) != consultant.Medium {
		t.Error("unlisted pair not medium")
	}
	if len(g.HighPairs) != 1 {
		t.Errorf("HighPairs = %d", len(g.HighPairs))
	}
	if g.Thresholds == nil {
		t.Error("thresholds map nil")
	}
}

func TestGuidanceThresholds(t *testing.T) {
	sp := testSpace(t)
	ds := &DirectiveSet{Thresholds: []ThresholdDirective{{Hypothesis: consultant.ExcessiveSync, Value: 0.12}}}
	g, _ := ds.Compile().Bind(sp)
	if g.Thresholds[consultant.ExcessiveSync] != 0.12 {
		t.Error("threshold not compiled")
	}
}

func TestCloneAndMerge(t *testing.T) {
	a := &DirectiveSet{
		Source:     "a",
		Prunes:     []Prune{{Hypothesis: "*", Path: "/Machine"}},
		Priorities: []PriorityDirective{{Hypothesis: "H", Focus: "<f>", Level: consultant.High}},
		Thresholds: []ThresholdDirective{{Hypothesis: "H", Value: 0.2}},
	}
	c := a.Clone()
	c.Prunes[0].Path = "/Code"
	if a.Prunes[0].Path != "/Machine" {
		t.Error("Clone aliases prune storage")
	}
	b := &DirectiveSet{
		Prunes:     []Prune{{Hypothesis: "*", Path: "/Machine"}, {Hypothesis: "*", Path: "/SyncObject"}},
		Priorities: []PriorityDirective{{Hypothesis: "H", Focus: "<f>", Level: consultant.Low}, {Hypothesis: "H", Focus: "<g>", Level: consultant.High}},
		Thresholds: []ThresholdDirective{{Hypothesis: "H", Value: 0.1}},
	}
	a.Merge(b)
	if len(a.Prunes) != 2 {
		t.Errorf("merged prunes = %d, want 2 (duplicate dropped)", len(a.Prunes))
	}
	if len(a.Priorities) != 2 {
		t.Errorf("merged priorities = %d", len(a.Priorities))
	}
	// The merged-in priority for the same pair wins.
	if a.Priorities[0].Level != consultant.Low {
		t.Error("merge did not overwrite the duplicate priority")
	}
	if a.Thresholds[0].Value != 0.1 {
		t.Error("merge did not overwrite the threshold")
	}
	if a.Len() != 5 {
		t.Errorf("Len = %d", a.Len())
	}
}

func TestSortIsDeterministic(t *testing.T) {
	ds := &DirectiveSet{
		Prunes: []Prune{
			{Hypothesis: "Z", Path: "/b"},
			{Hypothesis: "A", Path: "/b"},
			{Hypothesis: "A", Path: "/a"},
			{Hypothesis: "A", Focus: "<x>"},
		},
		Priorities: []PriorityDirective{
			{Hypothesis: "B", Focus: "<y>"},
			{Hypothesis: "A", Focus: "<z>"},
			{Hypothesis: "A", Focus: "<a>"},
		},
		Thresholds: []ThresholdDirective{{Hypothesis: "Z"}, {Hypothesis: "A"}},
	}
	ds.Sort()
	if ds.Prunes[0].Hypothesis != "A" || ds.Prunes[0].Path != "" {
		t.Errorf("prune sort: %+v", ds.Prunes)
	}
	if ds.Priorities[0].Focus != "<a>" || ds.Thresholds[0].Hypothesis != "A" {
		t.Error("priority/threshold sort wrong")
	}
}

// rebuildFocusName is normalizeFocusName as it was before it learned to
// recognise a canonical name: every name split, trimmed, validated and
// joined again. The reference of the property below.
func rebuildFocusName(focus string) (string, error) {
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

// normalizeFocusName answers a canonical name from one scan; whatever it
// answers must be what the reference answers, value and error-ness, over
// canonical names with whitespace and junk injected.
func TestNormalizeFocusNameMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	labels := []string{"Code", "oned.f", "main", "p 1", "sp01", "tag_3_0", "é", "a<b", "x>", "naïve ", " pad", "t\t"}
	junk := []string{" ", "\t", "\n", "\u00a0", "\u2003", "\x85", ",", "/", "<", ">", "x"}
	check := func(name string) {
		t.Helper()
		got, gotErr := normalizeFocusName(name)
		want, wantErr := rebuildFocusName(name)
		if got != want || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("normalizeFocusName(%q) = %q, %v; rebuilt: %q, %v", name, got, gotErr, want, wantErr)
		}
	}
	canonical := 0
	for i := 0; i < 20_000; i++ {
		var paths []string
		for n := 1 + rng.Intn(4); n > 0; n-- {
			path := ""
			for d := 1 + rng.Intn(3); d > 0; d-- {
				path += "/" + labels[rng.Intn(len(labels))]
			}
			paths = append(paths, path)
		}
		name := "<" + strings.Join(paths, ",") + ">"
		check(name)
		if isCanonicalFocusName(name) {
			canonical++
		}
		for n := rng.Intn(4); n > 0; n-- {
			at := rng.Intn(len(name) + 1)
			if rng.Intn(4) == 0 && at < len(name) {
				name = name[:at] + name[at+1:] // drop a byte: a bracket, a slash, half a rune
			} else {
				name = name[:at] + junk[rng.Intn(len(junk))] + name[at:]
			}
			check(name)
		}
	}
	if canonical < 10_000 {
		t.Errorf("the scan recognised only %d of 20000 generated canonical names", canonical)
	}
	for _, name := range []string{"", "<", ">", "<>", "><", "</>", "</a,>", "<,/a>", "</a//b>", "</a/>", "</a>", " </a>", "</a> ", "< /a >"} {
		check(name)
	}
}

// The names Guidance meets are the ones Focus.Name emits; those must
// come back as they went in, without an allocation.
func TestNormalizeFocusNameKeepsCanonicalInput(t *testing.T) {
	sp := testSpace(t)
	for _, name := range []string{
		sp.WholeProgram().Name(),
		focusName(t, sp, "/Code/oned.f/main", "/Process/p2", "/SyncObject/Message/tag_3_0"),
	} {
		var got string
		allocs := testing.AllocsPerRun(100, func() { got, _ = normalizeFocusName(name) })
		if got != name || allocs != 0 {
			t.Errorf("normalizeFocusName(%q) = %q with %v allocations, want the input and none", name, got, allocs)
		}
	}
}
