package consultant

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/resource"
)

// keys renders nodes as "key priority state", in the order given.
func keys(nodes []*Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Key() + " " + n.Priority.String() + " " + n.State.String()
	}
	return out
}

// TestSearchDrivenByValues drives one Search with no probes, no trace
// and no clock — a table of values stands in for all three — through
// seed, conclude, refine and the re-seed and re-refine a grown space
// asks for, and checks that repeating any of them queues nothing twice.
func TestSearchDrivenByValues(t *testing.T) {
	sp := resource.NewStandardSpace()
	p1 := sp.MustAdd("/Process/p1")
	sp.MustAdd("/Code/a.c/f")
	whole := sp.WholeProgram()
	atP1 := whole.MustWithSelection(p1)
	guid := Guidance{
		Prune: func(hyp string, f resource.Focus, name string) bool {
			if name != f.Name() {
				t.Errorf("Prune was handed %q for the focus %s", name, f.Name())
			}
			return hyp == ExcessiveIO || strings.Contains(name, "/Code/a.c")
		},
		Priority: func(hyp, name string) Priority {
			if strings.Contains(name, "/Code/b.c,/Machine,/Process,") {
				return Low
			}
			return Medium
		},
		HighPairs: []HF{
			{Hyp: CPUBound, Focus: atP1},
			{Hyp: ExcessiveIO, Focus: atP1}, // pruned: never created
			{Hyp: "NoSuchHypothesis", Focus: whole},
			{Hyp: TopLevelHypothesis, Focus: atP1},
		},
		Thresholds: map[string]float64{ExcessiveSync: 0.5},
	}
	s, err := NewSearch(sp, StandardHypotheses(), guid, BreadthFirst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Waiting() || len(s.Pending()) != 0 {
		t.Fatal("pairs queued before the search was seeded")
	}

	s.Seed(0)
	s.Seed(0) // idempotent
	w := " " + whole.Name() + " "
	want := []string{
		CPUBound + " " + atP1.Name() + " high pending", // High first, though created last
		CPUBound + w + "medium pending",
		ExcessiveSync + w + "medium pending",
	}
	if got := keys(s.Pending()); !slices.Equal(got, want) {
		t.Fatalf("after seeding the queue is\n%q\nwant\n%q", got, want)
	}
	if n, ok := s.SHG().Lookup(ExcessiveIO, whole); !ok || n.State != StatePruned {
		t.Errorf("pruned top-level pair: %+v, want a pruned node", n)
	}
	if _, ok := s.SHG().Lookup(ExcessiveIO, atP1); ok {
		t.Error("a pruned High pair was created")
	}
	if high, _ := s.SHG().Lookup(CPUBound, atP1); !high.Persistent {
		t.Error("High pair is not persistent")
	}

	// Values: CPU is true everywhere; sync is 0.4 — above the default
	// threshold, under the directed one.
	conclude := func() {
		for _, n := range s.Pending() {
			switch n.Hyp.Name {
			case CPUBound:
				s.Conclude(n, 0.9, 1)
			case ExcessiveSync:
				s.Conclude(n, 0.4, 1)
			}
		}
	}
	conclude()
	if n, _ := s.SHG().Lookup(ExcessiveSync, whole); n.State != StateFalse || n.Threshold != 0.5 || len(n.Children()) != 0 {
		t.Errorf("sync under the directed threshold: %+v, want false at 0.5 and unrefined", n)
	}
	// The true whole-program pair refined to /Process/p1 — which the High
	// seeding had created — so the node is linked, not queued again; the
	// /Code children are pruned; /Machine and /SyncObject have no children.
	high, _ := s.SHG().Lookup(CPUBound, atP1)
	if got := keys(high.Parents()); len(got) != 2 {
		t.Errorf("the High pair's parents are %q, want the root and the whole-program pair", got)
	}
	if got := keys(s.Pending()); len(got) != 0 {
		t.Fatalf("queue after the first level: %q, want empty (every child pruned, linked or absent)", got)
	}
	size := s.SHG().Len()
	for _, n := range s.SHG().TrueNodes() {
		s.Refine(n, 2)
	}
	s.Seed(2)
	if s.SHG().Len() != size || s.Waiting() {
		t.Fatalf("re-seeding and re-refining over an unchanged space grew the graph from %d to %d nodes", size, s.SHG().Len())
	}

	// The space grows: a late process, whose High pair can only now be
	// compiled, and a late function. Only pairs the graph does not hold
	// are queued, under the parents that were true all along — once.
	p9 := sp.MustAdd("/Process/p9")
	sp.MustAdd("/Code/b.c/g")
	atP9 := whole.MustWithSelection(p9)
	guid.HighPairs = append(guid.HighPairs, HF{Hyp: ExcessiveSync, Focus: atP9})
	s.Steer(guid)
	for pass := 0; pass < 2; pass++ {
		s.Seed(3)
		for _, n := range s.SHG().TrueNodes() {
			s.Refine(n, 3)
		}
	}
	code, _ := sp.Find("/Code/b.c")
	want = []string{
		ExcessiveSync + " " + atP9.Name() + " high pending",
		CPUBound + " " + atP9.Name() + " medium pending",
		CPUBound + " " + atP1.MustWithSelection(code).Name() + " medium pending",
		CPUBound + " " + whole.MustWithSelection(code).Name() + " low pending", // created first, tested last
	}
	if got := keys(s.Pending()); !slices.Equal(got, want) {
		t.Fatalf("after growth the queue is\n%q\nwant\n%q", got, want)
	}
	seen := map[*Node]bool{}
	for _, n := range s.queue {
		if seen[n] {
			t.Errorf("%s is queued twice", n.Key())
		}
		seen[n] = true
	}
	s.Unmeasurable(s.Pending()[3], 3)
	if got := keys(s.Pending()); !slices.Equal(got, want[:3]) {
		t.Errorf("an unmeasurable pair stayed queued: %q", got)
	}

	// A persistent pair concluded again: same conclusion, nothing moves;
	// the opposite one flips it.
	s.Conclude(high, 0.8, 4)
	if high.State != StateTrue || high.ConcludedAt != 1 || high.Value != 0.8 {
		t.Errorf("re-concluded High pair: %+v, want true since t=1 with the new value", high)
	}
	s.Conclude(high, 0.1, 5)
	if high.State != StateFalse || high.ConcludedAt != 5 {
		t.Errorf("flipped High pair: %+v, want false at t=5", high)
	}
}

// TestSearchRespectsMaxNodes: the cap on the graph's size holds through
// seeding and refinement, and a capped search still concludes.
func TestSearchRespectsMaxNodes(t *testing.T) {
	sp := resource.NewStandardSpace()
	for _, p := range []string{"/Process/p1", "/Process/p2", "/Process/p3", "/Machine/n1", "/Code/a.c/f"} {
		sp.MustAdd(p)
	}
	const limit = 6
	s, err := NewSearch(sp, StandardHypotheses(), Guidance{}, DepthFirst, limit)
	if err != nil {
		t.Fatal(err)
	}
	s.Seed(0)
	for rounds := 0; s.Waiting(); rounds++ {
		if rounds > limit {
			t.Fatal("the capped search never ran dry")
		}
		for _, n := range s.Pending() {
			s.Conclude(n, 1, 0)
		}
	}
	if s.SHG().Len() != limit {
		t.Errorf("graph holds %d nodes, want the cap of %d", s.SHG().Len(), limit)
	}
	if got := s.SHG().CountState(StateTrue); got != limit {
		t.Errorf("%d of %d nodes true; every queued pair should have concluded", got, limit)
	}
}
