package core

import (
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/consultant"
	"repro/internal/resource"
)

// freshGuidance is DirectiveSet.Guidance as it was before a set was
// compiled once and bound per space: the reference the compiled form is
// held to.
func freshGuidance(ds *DirectiveSet, space *resource.Space) (consultant.Guidance, int) {
	skipped := 0
	type subtreePrune struct{ hyp, hier, path string }
	var prunes []subtreePrune
	pairPrunes := make(map[string]bool)
	for _, p := range ds.Prunes {
		if p.Focus != "" {
			name, err := normalizeFocusName(p.Focus)
			if err != nil {
				skipped++
				continue
			}
			pairPrunes[p.Hypothesis+" "+name] = true
			continue
		}
		parts, err := resource.SplitPath(p.Path)
		if err != nil {
			skipped++
			continue
		}
		prunes = append(prunes, subtreePrune{hyp: p.Hypothesis, hier: parts[0], path: p.Path})
	}
	prio := make(map[string]consultant.Priority)
	var high []consultant.HF
	for _, p := range ds.Priorities {
		name, err := normalizeFocusName(p.Focus)
		if err != nil {
			skipped++
			continue
		}
		prio[p.Hypothesis+" "+name] = p.Level
		if p.Level == consultant.High {
			f, err := resource.ParseFocus(space, p.Focus)
			if err != nil {
				skipped++
				continue
			}
			high = append(high, consultant.HF{Hyp: p.Hypothesis, Focus: f})
		}
	}
	thresholds := make(map[string]float64, len(ds.Thresholds))
	for _, t := range ds.Thresholds {
		thresholds[t.Hypothesis] = t.Value
	}
	g := consultant.Guidance{HighPairs: high, Thresholds: thresholds}
	if len(prunes) > 0 || len(pairPrunes) > 0 {
		g.Prune = func(hyp string, f resource.Focus, _ string) bool {
			if pairPrunes[hyp+" "+f.Name()] {
				return true
			}
			for _, p := range prunes {
				if p.hyp != AnyHypothesis && p.hyp != hyp {
					continue
				}
				sel, ok := f.Selection(p.hier)
				if !ok || sel.IsRoot() {
					continue
				}
				if sel.Path() == p.path || strings.HasPrefix(sel.Path(), p.path+"/") {
					return true
				}
			}
			return false
		}
	}
	if len(prio) > 0 {
		g.Priority = func(hyp, name string) consultant.Priority {
			if lv, ok := prio[hyp+" "+name]; ok {
				return lv
			}
			return consultant.Medium
		}
	}
	return g, skipped
}

var guideHyps = []string{consultant.CPUBound, consultant.ExcessiveSync, consultant.ExcessiveIO}

// randomGuideSpace is a standard space with a random few modules,
// functions, nodes, processes and tags.
func randomGuideSpace(rng *rand.Rand) *resource.Space {
	sp := resource.NewStandardSpace()
	growGuideSpace(sp, rng)
	return sp
}

// growGuideSpace adds a random few resources to sp, as a stream's
// discoveries grow its space.
func growGuideSpace(sp *resource.Space, rng *rand.Rand) {
	for i := rng.Intn(4); i >= 0; i-- {
		mod := fmt.Sprintf("/Code/mod%d.f", rng.Intn(5))
		sp.MustAdd(mod)
		sp.MustAdd(fmt.Sprintf("%s/fn%d", mod, rng.Intn(4)))
	}
	for i := rng.Intn(4); i >= 0; i-- {
		sp.MustAdd(fmt.Sprintf("/Machine/node%02d", rng.Intn(6)))
		sp.MustAdd(fmt.Sprintf("/Process/proc%d", rng.Intn(6)))
	}
	sp.MustAdd(fmt.Sprintf("/SyncObject/Message/tag%d", rng.Intn(4)))
}

// randomGuideFocus walks each hierarchy down a random depth.
func randomGuideFocus(sp *resource.Space, rng *rand.Rand) resource.Focus {
	f := sp.WholeProgram()
	for _, h := range sp.Hierarchies() {
		r := h.Root()
		for r.NumChildren() > 0 && rng.Intn(2) == 1 {
			r = r.Children()[rng.Intn(r.NumChildren())]
		}
		f = f.MustWithSelection(r)
	}
	return f
}

// randomFocusText is a focus name of sp, one it never holds, one it may
// hold once grown, one spelled with spaces, or none at all.
func randomFocusText(sp *resource.Space, rng *rand.Rand) string {
	switch rng.Intn(7) {
	case 0:
		return "</Code/ghost.f,/Machine,/Process/proc9,/SyncObject>"
	case 3:
		return fmt.Sprintf("</Code/mod%d.f/fn%d,/Machine,/Process/proc%d,/SyncObject>", rng.Intn(5), rng.Intn(4), rng.Intn(6))
	case 1:
		return "not a focus"
	case 2:
		return strings.ReplaceAll(randomGuideFocus(sp, rng).Name(), ",", " , ")
	}
	return randomGuideFocus(sp, rng).Name()
}

// randomGuideSet draws a directive set against sp: pair and subtree
// prunes, priorities at every level, thresholds, some of each malformed
// or naming what sp does not hold.
func randomGuideSet(sp *resource.Space, rng *rand.Rand) *DirectiveSet {
	hyp := func() string { return append(guideHyps, AnyHypothesis)[rng.Intn(4)] }
	paths := append(sp.AllPaths(), "/Code/ghost.f", "bad path", "/Machine")
	ds := &DirectiveSet{}
	for i := rng.Intn(8); i > 0; i-- {
		if rng.Intn(2) == 0 {
			ds.Prunes = append(ds.Prunes, Prune{Hypothesis: hyp(), Focus: randomFocusText(sp, rng)})
		} else {
			ds.Prunes = append(ds.Prunes, Prune{Hypothesis: hyp(), Path: paths[rng.Intn(len(paths))]})
		}
	}
	for i := rng.Intn(12); i > 0; i-- {
		level := []consultant.Priority{consultant.Low, consultant.Medium, consultant.High}[rng.Intn(3)]
		ds.Priorities = append(ds.Priorities, PriorityDirective{Hypothesis: guideHyps[rng.Intn(3)], Focus: randomFocusText(sp, rng), Level: level})
	}
	for i := rng.Intn(4); i > 0; i-- {
		ds.Thresholds = append(ds.Thresholds, ThresholdDirective{Hypothesis: guideHyps[rng.Intn(3)], Value: rng.Float64()})
	}
	return ds
}

// sameGuidance reports where got and want, bound to sp, answer
// differently: Prune and Priority over random foci of sp, the High pairs
// in order, the thresholds and the skipped count.
func sameGuidance(sp *resource.Space, rng *rand.Rand, got, want consultant.Guidance, gotSkipped, wantSkipped int) error {
	if gotSkipped != wantSkipped {
		return fmt.Errorf("skipped %d, want %d", gotSkipped, wantSkipped)
	}
	if (got.Prune == nil) != (want.Prune == nil) || (got.Priority == nil) != (want.Priority == nil) {
		return fmt.Errorf("hooks set differ: prune %v/%v, priority %v/%v", got.Prune != nil, want.Prune != nil, got.Priority != nil, want.Priority != nil)
	}
	if !maps.Equal(got.Thresholds, want.Thresholds) || got.Thresholds == nil {
		return fmt.Errorf("thresholds %v, want %v", got.Thresholds, want.Thresholds)
	}
	if len(got.HighPairs) != len(want.HighPairs) {
		return fmt.Errorf("%d High pairs, want %d", len(got.HighPairs), len(want.HighPairs))
	}
	for i, hf := range got.HighPairs {
		if hf.Hyp != want.HighPairs[i].Hyp || !hf.Focus.Equal(want.HighPairs[i].Focus) {
			return fmt.Errorf("High pair %d is %s %s, want %s %s", i, hf.Hyp, hf.Focus.Name(), want.HighPairs[i].Hyp, want.HighPairs[i].Focus.Name())
		}
	}
	for i := 0; i < 40; i++ {
		f := randomGuideFocus(sp, rng)
		name := f.Name()
		for _, h := range guideHyps {
			if got.Prune != nil && got.Prune(h, f, name) != want.Prune(h, f, name) {
				return fmt.Errorf("Prune(%s, %s) = %v", h, name, got.Prune(h, f, name))
			}
			if got.Priority != nil && got.Priority(h, name) != want.Priority(h, name) {
				return fmt.Errorf("Priority(%s, %s) = %v", h, name, got.Priority(h, name))
			}
		}
	}
	return nil
}

// TestCompiledGuidanceMatchesFresh: a set compiled once by the cache and
// bound to a space — then to the same space grown, as a stream's is —
// answers every question a fresh compile against that space answers, the
// same way; and so does one Binding of the set kept across the growth,
// which parses only the High pairs it could not resolve before.
func TestCompiledGuidanceMatchesFresh(t *testing.T) {
	c := NewHarvestCache()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sp := randomGuideSpace(rng)
		ds := randomGuideSet(sp, rng)
		guide := c.Guide(ds)
		kept := guide.NewBinding(sp)
		for round := 0; round < 3; round++ {
			if c.Guide(ds) != guide {
				t.Errorf("seed %d: a second Guide compiled again", seed)
				return false
			}
			want, wantSkipped := freshGuidance(ds, sp)
			got, gotSkipped := guide.Bind(sp)
			if err := sameGuidance(sp, rng, got, want, gotSkipped, wantSkipped); err != nil {
				t.Errorf("seed %d, round %d: %v", seed, round, err)
				return false
			}
			got, gotSkipped = kept.Guidance()
			if err := sameGuidance(sp, rng, got, want, gotSkipped, wantSkipped); err != nil {
				t.Errorf("seed %d, round %d, kept binding: %v", seed, round, err)
				return false
			}
			growGuideSpace(sp, rng)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDirectiveTextMemo: a text the cache formatted gives back its very
// set; a set whose text does not read back as it, and a text the cache
// never wrote, are parsed per request; and however many sets are
// formatted, at most maxTexts texts are kept, while texts the cache did
// not write add nothing.
func TestDirectiveTextMemo(t *testing.T) {
	c := NewHarvestCache()
	for i := 0; i < 3*maxTexts; i++ {
		rec := fakeRecord()
		rec.RunID = fmt.Sprintf("run%d", i) // a source of its own: a text of its own
		ds := c.Harvest(rec, HarvestAll())
		text := c.Format(ds)
		if text != FormatDirectives(ds) || c.Format(ds) != text {
			t.Fatalf("set %d: Format differs from FormatDirectives", i)
		}
		got, guide, err := c.Directives(text)
		if err != nil || got != ds || guide != c.Guide(ds) {
			t.Fatalf("set %d: Directives of its formatted text = %p, %v; want the set %p, compiled", i, got, err, ds)
		}
		if len(c.texts) > maxTexts {
			t.Fatalf("set %d: %d texts kept, over the bound of %d", i, len(c.texts), maxTexts)
		}
	}
	kept, compiled := len(c.texts), c.guides.misses.Load()

	// Trailing space in the source line does not survive a parse.
	odd := &DirectiveSet{Source: "padded ", Thresholds: []ThresholdDirective{{Hypothesis: consultant.CPUBound, Value: 0.2}}}
	text := c.Format(odd)
	got, _, err := c.Directives(text)
	if err != nil || got == odd || got.Source != "padded" {
		t.Fatalf("a text that does not read back as its set gave %+v, %v", got, err)
	}
	for i := 0; i < 4*maxTexts; i++ {
		text := fmt.Sprintf("threshold %s 0.%d\n", consultant.CPUBound, i+1)
		ds, guide, err := c.Directives(text)
		if err != nil || guide == nil || len(ds.Thresholds) != 1 {
			t.Fatalf("%q: %+v, %v", text, ds, err)
		}
	}
	if _, _, err := c.Directives("bogus line\n"); err == nil {
		t.Error("a malformed text was accepted")
	}
	if len(c.texts) != kept || c.guides.misses.Load() != compiled {
		t.Errorf("texts the cache never wrote grew it: %d texts, %d compiled, want %d and %d", len(c.texts), c.guides.misses.Load(), kept, compiled)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != uint64(3*maxTexts) {
		t.Errorf("stats = %d hits, %d misses; the text memo must not count", hits, misses)
	}
}
