package consultant

import (
	"strings"
	"testing"

	"repro/internal/resource"
)

func TestExtendedHypothesesTree(t *testing.T) {
	root := ExtendedHypotheses()
	sync := root.Find(ExcessiveSync)
	if sync == nil || len(sync.Children) != 2 {
		t.Fatalf("sync children = %v", sync)
	}
	if root.Find(FrequentMessages) == nil || root.Find(LargeMessageVolume) == nil {
		t.Error("extended hypotheses not reachable from the root")
	}
	if len(root.Names()) != 6 {
		t.Errorf("Names = %v", root.Names())
	}
	// The standard tree is unaffected (no shared mutation).
	if std := StandardHypotheses(); len(std.Find(ExcessiveSync).Children) != 0 {
		t.Error("StandardHypotheses gained children")
	}
}

func TestChildHypothesisRefinement(t *testing.T) {
	// When the sync hypothesis tests true, its more specific children are
	// spawned at the same focus; the miniature rig sends one message per
	// second per process pair, so FrequentMessages (>=10 msg/s/proc) is
	// false while the sync parent is true.
	cfg := defaultTestConfig()
	r := newRigWithHyps(t, cfg, Guidance{}, ExtendedHypotheses())
	r.runUntilQuiesced(400)
	whole := r.sp.WholeProgram()
	parent, ok := r.c.SHG().Lookup(ExcessiveSync, whole)
	if !ok || parent.State != StateTrue {
		t.Fatalf("sync parent state = %v", parent.State)
	}
	child, ok := r.c.SHG().Lookup(FrequentMessages, whole)
	if !ok {
		t.Fatal("child hypothesis not spawned at the parent's focus")
	}
	if child.State != StateFalse {
		t.Errorf("FrequentMessages = %v (1 msg/s/proc < 10)", child.State)
	}
	// The child is linked under the parent in the SHG.
	linked := false
	for _, c := range parent.Children() {
		if c == child {
			linked = true
		}
	}
	if !linked {
		t.Error("child hypothesis not a SHG child of its parent")
	}
}

func TestChildHypothesisCanTestTrue(t *testing.T) {
	// Lower the message-rate threshold below the rig's actual rate: the
	// child tests true and is itself refined by focus.
	cfg := defaultTestConfig()
	guid := Guidance{Thresholds: map[string]float64{FrequentMessages: 0.1}}
	r := newRigWithHyps(t, cfg, guid, ExtendedHypotheses())
	r.runUntilQuiesced(400)
	whole := r.sp.WholeProgram()
	child, ok := r.c.SHG().Lookup(FrequentMessages, whole)
	if !ok || child.State != StateTrue {
		t.Fatalf("FrequentMessages at low threshold = %v", child.State)
	}
	if len(child.Children()) == 0 {
		t.Error("true child hypothesis was not refined by focus")
	}
}

func TestDOTExport(t *testing.T) {
	r := newRig(t, defaultTestConfig(), Guidance{})
	r.runUntilQuiesced(200)
	dot := r.c.SHG().DOT()
	for _, want := range []string{
		"digraph SHG {",
		"TopLevelHypothesis",
		"fillcolor=gray40", // true nodes
		"fillcolor=gray90", // false nodes
		"->",
		"}",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	// Every node appears exactly once.
	if strings.Count(dot, "n0 [") != 1 {
		t.Error("root node duplicated or missing")
	}
}

func TestDOTShowsPrunedNodes(t *testing.T) {
	guid := Guidance{Prune: func(hyp string, f resource.Focus, _ string) bool {
		sel, ok := f.Selection(resource.HierSyncObject)
		return ok && !sel.IsRoot()
	}}
	r := newRig(t, defaultTestConfig(), guid)
	r.runUntilQuiesced(200)
	if !strings.Contains(r.c.SHG().DOT(), "style=dashed") {
		t.Error("pruned nodes not rendered dashed")
	}
}
