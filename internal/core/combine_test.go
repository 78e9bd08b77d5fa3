package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/consultant"
)

func prio(h, f string, l consultant.Priority) PriorityDirective {
	return PriorityDirective{Hypothesis: h, Focus: f, Level: l}
}

// levelsOf indexes a set's priorities by pair.
func levelsOf(ds *DirectiveSet) map[pair]consultant.Priority {
	out := make(map[pair]consultant.Priority, len(ds.Priorities))
	for _, p := range ds.Priorities {
		out[pair{p.Hypothesis, p.Focus}] = p.Level
	}
	return out
}

// thresholdsOf indexes a set's thresholds by hypothesis.
func thresholdsOf(ds *DirectiveSet) map[string]float64 {
	out := make(map[string]float64, len(ds.Thresholds))
	for _, t := range ds.Thresholds {
		out[t.Hypothesis] = t.Value
	}
	return out
}

func TestIntersectPriorities(t *testing.T) {
	a := &DirectiveSet{Source: "a", Priorities: []PriorityDirective{
		prio("H", "<x>", consultant.High), // true in both -> kept
		prio("H", "<y>", consultant.High), // true only in a -> dropped
		prio("H", "<z>", consultant.Low),  // false in both -> kept
		prio("H", "<w>", consultant.Low),  // false in a, true in b -> dropped
	}}
	b := &DirectiveSet{Source: "b", Priorities: []PriorityDirective{
		prio("H", "<x>", consultant.High),
		prio("H", "<z>", consultant.Low),
		prio("H", "<w>", consultant.High),
	}}
	got := Combine(true, a, b)
	want := []PriorityDirective{prio("H", "<x>", consultant.High), prio("H", "<z>", consultant.Low)}
	if !slices.Equal(got.Priorities, want) {
		t.Errorf("intersect priorities = %+v, want %+v", got.Priorities, want)
	}
	if got.Source != "(a)∩(b)" {
		t.Errorf("intersect source = %q", got.Source)
	}
}

func TestUnionPriorities(t *testing.T) {
	a := &DirectiveSet{Source: "a", Priorities: []PriorityDirective{
		prio("H", "<x>", consultant.High),
		prio("H", "<w>", consultant.Low), // false in a, true in b -> High wins
		prio("H", "<z>", consultant.Low),
	}}
	b := &DirectiveSet{Source: "b", Priorities: []PriorityDirective{
		prio("H", "<w>", consultant.High),
		prio("H", "<v>", consultant.Low),
	}}
	got := Combine(false, a, b)
	want := []PriorityDirective{
		prio("H", "<v>", consultant.Low), prio("H", "<w>", consultant.High),
		prio("H", "<x>", consultant.High), prio("H", "<z>", consultant.Low),
	}
	if !slices.Equal(got.Priorities, want) {
		t.Errorf("union priorities = %+v, want %+v (High wins over Low)", got.Priorities, want)
	}
	if got.Source != "(a)∪(b)" {
		t.Errorf("union source = %q", got.Source)
	}
}

func TestCombinePrunes(t *testing.T) {
	a := &DirectiveSet{Prunes: []Prune{
		{Hypothesis: "*", Path: "/Machine"},
		{Hypothesis: "*", Path: "/Code/util.f"},
	}}
	b := &DirectiveSet{Prunes: []Prune{
		{Hypothesis: "*", Path: "/Machine"},
		{Hypothesis: "*", Path: "/Code/blas.f"},
	}}
	and := Combine(true, a, b)
	if len(and.Prunes) != 1 || and.Prunes[0].Path != "/Machine" {
		t.Errorf("intersect prunes = %+v", and.Prunes)
	}
	or := Combine(false, a, b)
	if len(or.Prunes) != 3 {
		t.Errorf("union prunes = %+v", or.Prunes)
	}
	if and.Source != "" || or.Source != "" {
		t.Errorf("two anonymous inputs gave sources %q and %q", and.Source, or.Source)
	}
}

func TestCombineThresholds(t *testing.T) {
	a := &DirectiveSet{Thresholds: []ThresholdDirective{{Hypothesis: "H", Value: 0.12}, {Hypothesis: "G", Value: 0.2}}}
	b := &DirectiveSet{Thresholds: []ThresholdDirective{{Hypothesis: "H", Value: 0.2}}}
	c := &DirectiveSet{Thresholds: []ThresholdDirective{{Hypothesis: "H", Value: 0.15}, {Hypothesis: "G", Value: 0.1}}}
	and := Combine(true, a, b)
	if len(and.Thresholds) != 1 || and.Thresholds[0].Value != 0.2 {
		t.Errorf("intersect thresholds = %+v (want the conservative max)", and.Thresholds)
	}
	or := thresholdsOf(Combine(false, a, b))
	if or["H"] != 0.12 {
		t.Errorf("union H = %v (want the sensitive min)", or["H"])
	}
	if or["G"] != 0.2 {
		t.Errorf("union G = %v", or["G"])
	}
	// Over three sets, the need-th smallest: the max of all three under
	// all, the min of those that carry it under any.
	if got := thresholdsOf(Combine(true, a, b, c)); len(got) != 1 || got["H"] != 0.2 {
		t.Errorf("three-way intersect thresholds = %v", got)
	}
	if got := thresholdsOf(Combine(false, a, b, c)); got["H"] != 0.12 || got["G"] != 0.1 {
		t.Errorf("three-way union thresholds = %v", got)
	}
}

// TestCombineDuplicatesCountOnce: a set that lists a prune, pair or
// threshold twice counts once, with its last entry, as Compile keeps it.
func TestCombineDuplicatesCountOnce(t *testing.T) {
	a := &DirectiveSet{
		Prunes: []Prune{{Hypothesis: "*", Path: "/Machine"}, {Hypothesis: "*", Path: "/Machine"}},
		Priorities: []PriorityDirective{
			prio("H", "<x>", consultant.High), prio("H", "<x>", consultant.Low), // Low counts
			prio("H", "<y>", consultant.High), prio("H", "<y>", consultant.High),
		},
		Thresholds: []ThresholdDirective{{Hypothesis: "H", Value: 0.3}, {Hypothesis: "H", Value: 0.1}}, // 0.1 counts
	}
	b := &DirectiveSet{
		Priorities: []PriorityDirective{prio("H", "<x>", consultant.Low)},
		Thresholds: []ThresholdDirective{{Hypothesis: "H", Value: 0.2}},
	}
	// a alone: one of each, the last entry of each.
	self := Combine(true, a)
	if want := []Prune{{Hypothesis: "*", Path: "/Machine"}}; !slices.Equal(self.Prunes, want) {
		t.Errorf("prunes = %+v, want %+v", self.Prunes, want)
	}
	if want := []PriorityDirective{prio("H", "<x>", consultant.Low), prio("H", "<y>", consultant.High)}; !slices.Equal(self.Priorities, want) {
		t.Errorf("priorities = %+v, want %+v", self.Priorities, want)
	}
	if want := []ThresholdDirective{{Hypothesis: "H", Value: 0.1}}; !slices.Equal(self.Thresholds, want) {
		t.Errorf("thresholds = %+v, want %+v", self.Thresholds, want)
	}
	// a's two entries for <y> are one set's, not the two an intersection
	// of two sets needs; its Low for <x> is what b agrees with.
	and := Combine(true, a, b)
	if want := []PriorityDirective{prio("H", "<x>", consultant.Low)}; !slices.Equal(and.Priorities, want) || len(and.Prunes) != 0 {
		t.Errorf("intersect = %+v, want priorities %+v and no prune", and, want)
	}
	if want := []ThresholdDirective{{Hypothesis: "H", Value: 0.2}}; !slices.Equal(and.Thresholds, want) {
		t.Errorf("intersect thresholds = %+v, want %+v", and.Thresholds, want)
	}
}

// drawSet builds a set over a small universe, so that draws overlap,
// whose entries repeat with other levels and values: what a library
// caller may hand Combine.
func drawSet(rng *rand.Rand) *DirectiveSet {
	ds := &DirectiveSet{Source: []string{"", "a", "b"}[rng.Intn(3)]}
	hyps := []string{consultant.CPUBound, consultant.ExcessiveSync}
	levels := []consultant.Priority{consultant.Low, consultant.Medium, consultant.High}
	for i := rng.Intn(5); i > 0; i-- {
		ds.Prunes = append(ds.Prunes, Prune{Hypothesis: hyps[rng.Intn(2)], Path: fmt.Sprintf("/Code/mod%d.f", rng.Intn(3))})
	}
	for i := rng.Intn(7); i > 0; i-- {
		ds.Priorities = append(ds.Priorities, prio(hyps[rng.Intn(2)], fmt.Sprintf("</Code/mod%d.f>", rng.Intn(3)), levels[rng.Intn(3)]))
	}
	for i := rng.Intn(4); i > 0; i-- {
		ds.Thresholds = append(ds.Thresholds, ThresholdDirective{Hypothesis: hyps[rng.Intn(2)], Value: float64(rng.Intn(10)) / 10})
	}
	return ds
}

// dedupe is a set once deduplicated, its last entry of each kept, sorted:
// the reference the laws below hold Combine to.
func dedupe(ds *DirectiveSet) *DirectiveSet {
	out := &DirectiveSet{Source: ds.Source}
	seen := make(map[any]bool)
	for i := len(ds.Prunes) - 1; i >= 0; i-- {
		if p := ds.Prunes[i]; !seen[p] {
			seen[p] = true
			out.Prunes = append(out.Prunes, p)
		}
	}
	for i := len(ds.Priorities) - 1; i >= 0; i-- {
		if p := ds.Priorities[i]; !seen[pair{p.Hypothesis, p.Focus}] {
			seen[pair{p.Hypothesis, p.Focus}] = true
			out.Priorities = append(out.Priorities, p)
		}
	}
	for i := len(ds.Thresholds) - 1; i >= 0; i-- {
		if t := ds.Thresholds[i]; !seen[t.Hypothesis] {
			seen[t.Hypothesis] = true
			out.Thresholds = append(out.Thresholds, t)
		}
	}
	out.Sort()
	return out
}

// sameContent reports whether a and b hold the same directives, whatever
// their sources.
func sameContent(a, b *DirectiveSet) bool {
	return slices.Equal(a.Prunes, b.Prunes) && slices.Equal(a.Priorities, b.Priorities) && slices.Equal(a.Thresholds, b.Thresholds)
}

// TestQuickCombineEqualsFold is the law the cache's fold rests on: Combine
// of two to four sets equals the two-at-a-time fold, directives and
// Source alike, under both rules; and the cache's Combine gives the same.
func TestQuickCombineEqualsFold(t *testing.T) {
	prop := func(seed int64, all bool) bool {
		rng := rand.New(rand.NewSource(seed))
		sets := make([]*DirectiveSet, 2+rng.Intn(3))
		for i := range sets {
			sets[i] = drawSet(rng)
		}
		fold := sets[0]
		for _, ds := range sets[1:] {
			fold = Combine(all, fold, ds)
		}
		return Combine(all, sets...).equal(fold) && NewHarvestCache().Combine(all, sets...).equal(fold)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickCombineCommutative: the order of the sets changes the label,
// never the directives.
func TestQuickCombineCommutative(t *testing.T) {
	prop := func(seed int64, all bool) bool {
		rng := rand.New(rand.NewSource(seed))
		sets := make([]*DirectiveSet, 2+rng.Intn(3))
		for i := range sets {
			sets[i] = drawSet(rng)
		}
		shuffled := slices.Clone(sets)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		return sameContent(Combine(all, sets...), Combine(all, shuffled...))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickIntersectSubsetOfUnion: every A∩B priority appears in A∪B at
// the same level, every A∩B prune and threshold hypothesis in A∪B.
func TestQuickIntersectSubsetOfUnion(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := drawSet(rng), drawSet(rng)
		and, or := Combine(true, a, b), Combine(false, a, b)
		orLevels, orThresholds := levelsOf(or), thresholdsOf(or)
		for _, p := range and.Priorities {
			if lv, ok := orLevels[pair{p.Hypothesis, p.Focus}]; !ok || lv != p.Level {
				return false
			}
		}
		for _, p := range and.Prunes {
			if !slices.Contains(or.Prunes, p) {
				return false
			}
		}
		for _, th := range and.Thresholds {
			if v, ok := orThresholds[th.Hypothesis]; !ok || v > th.Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickIntersectIdempotent: Combine(all, a, a) is a once
// deduplicated, under both rules.
func TestQuickIntersectIdempotent(t *testing.T) {
	prop := func(seed int64, all bool) bool {
		a := drawSet(rand.New(rand.NewSource(seed)))
		return sameContent(Combine(all, a, a), dedupe(a)) && Combine(all, a).equal(dedupe(a))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
