package consultant

import (
	"testing"

	"repro/internal/resource"
	"repro/internal/sim"
)

// TestPersistentNodeFlipsTrueLater drives a persistent High-priority pair
// through a workload whose behaviour changes mid-run: the pair first
// concludes false, keeps its instrumentation (persistent testing), and
// flips to true — and is refined — once the cumulative value crosses the
// threshold.
func TestPersistentNodeFlipsTrueLater(t *testing.T) {
	cfg := defaultTestConfig()
	r := newRig(t, cfg, Guidance{})
	io, _ := r.sp.Find("/Code/oned.f/setup")
	_ = io
	whole := r.sp.WholeProgram()
	r.c.search.guid.HighPairs = []HF{{Hyp: ExcessiveIO, Focus: whole}}
	if err := r.c.Start(0); err != nil {
		t.Fatal(err)
	}
	n, ok := r.c.SHG().Lookup(NodeKey(ExcessiveIO, whole))
	if !ok || !n.Persistent {
		t.Fatal("high pair not persistent")
	}
	// Phase 1: the standard rig workload has no I/O at all — the pair
	// concludes false.
	for i := 0; i < 6; i++ {
		r.step(1.0)
	}
	if n.State != StateFalse {
		t.Fatalf("phase 1 state = %v, want false", n.State)
	}
	if n.Probe() == nil || n.Probe().Removed() {
		t.Fatal("persistent probe was removed while no other work was pending")
	}
	// Phase 2: the application enters a heavy I/O phase. Feed intervals
	// directly so the cumulative I/O fraction rises above the threshold.
	for i := 0; i < 40; i++ {
		start := r.now
		end := start + 1.0
		r.inst.OnInterval(sim.Interval{Process: "p1", Node: "sp01", Module: "oned.f", Function: "setup",
			Kind: sim.KindIOWait, Start: start, End: end, Calls: 1})
		r.inst.OnInterval(sim.Interval{Process: "p2", Node: "sp02", Module: "oned.f", Function: "setup",
			Kind: sim.KindIOWait, Start: start, End: end, Calls: 1})
		r.now = end
		r.c.Tick(r.now)
		if n.State == StateTrue {
			break
		}
	}
	if n.State != StateTrue {
		t.Fatalf("persistent pair never flipped true (value %.3f)", n.Value)
	}
	if !n.Refined() {
		t.Error("flipped pair was not refined")
	}
}

func TestMaxNodesCapStopsSpawning(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.MaxNodes = 5
	r := newRig(t, cfg, Guidance{})
	if err := r.c.Start(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		r.step(1.0)
	}
	if got := r.c.SHG().Len(); got > 5 {
		t.Errorf("SHG grew to %d nodes, cap 5", got)
	}
}

func TestHighPairOnPrunedFocusIsSkipped(t *testing.T) {
	cfg := defaultTestConfig()
	r := newRig(t, cfg, Guidance{})
	tag, _ := r.sp.Find("/SyncObject/Message/tag_3_0")
	deep := r.sp.WholeProgram().MustWithSelection(tag)
	r.c.search.guid.HighPairs = []HF{{Hyp: ExcessiveSync, Focus: deep}}
	r.c.search.guid.Prune = func(hyp string, f resource.Focus) bool { return f.Equal(deep) }
	if err := r.c.Start(0); err != nil {
		t.Fatal(err)
	}
	if n, ok := r.c.SHG().Lookup(NodeKey(ExcessiveSync, deep)); ok && n.State == StateTesting {
		t.Error("pruned high pair was instrumented")
	}
}

func TestGuidanceZeroValueIsStockPC(t *testing.T) {
	var g Guidance
	if g.prune("X", resource.Focus{}) {
		t.Error("zero guidance prunes")
	}
	if g.priority("X", resource.Focus{}) != Medium {
		t.Error("zero guidance priority != medium")
	}
}

// TestRecencyWindowTracksPhaseChange shows why windowed conclusions exist:
// after the workload's I/O phase ends, a cumulative average would keep the
// I/O hypothesis true for a long time, while a recency-windowed consultant
// flips it back to false quickly.
func TestRecencyWindowTracksPhaseChange(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.RecencyWindow = 3.0
	r := newRig(t, cfg, Guidance{})
	whole := r.sp.WholeProgram()
	r.c.search.guid.HighPairs = []HF{{Hyp: ExcessiveIO, Focus: whole}}
	if err := r.c.Start(0); err != nil {
		t.Fatal(err)
	}
	n, _ := r.c.SHG().Lookup(NodeKey(ExcessiveIO, whole))
	// Phase 1: heavy I/O for 10 seconds.
	for i := 0; i < 10; i++ {
		start := r.now
		end := start + 1.0
		r.inst.OnInterval(sim.Interval{Process: "p1", Node: "sp01", Module: "oned.f", Function: "setup",
			Kind: sim.KindIOWait, Start: start, End: end, Calls: 1})
		r.inst.OnInterval(sim.Interval{Process: "p2", Node: "sp02", Module: "oned.f", Function: "setup",
			Kind: sim.KindIOWait, Start: start, End: end, Calls: 1})
		r.now = end
		r.c.Tick(r.now)
	}
	if n.State != StateTrue {
		t.Fatalf("I/O phase not detected: %v", n.State)
	}
	// Phase 2: the I/O phase ends; only compute from here on.
	flippedAt := -1.0
	for i := 0; i < 10; i++ {
		r.step(1.0)
		if n.State == StateFalse && flippedAt < 0 {
			flippedAt = r.now
		}
	}
	if flippedAt < 0 {
		t.Fatal("windowed consultant never noticed the phase change")
	}
	if flippedAt > 15.0 {
		t.Errorf("phase change noticed only at t=%.1f", flippedAt)
	}
	// A cumulative consultant over the same schedule is still true at
	// t=14 (10s of I/O over 14s x 2 procs = 0.36 > 0.1).
	cfg2 := defaultTestConfig()
	r2 := newRig(t, cfg2, Guidance{})
	r2.c.search.guid.HighPairs = []HF{{Hyp: ExcessiveIO, Focus: r2.sp.WholeProgram()}}
	if err := r2.c.Start(0); err != nil {
		t.Fatal(err)
	}
	n2, _ := r2.c.SHG().Lookup(NodeKey(ExcessiveIO, r2.sp.WholeProgram()))
	for i := 0; i < 10; i++ {
		start := r2.now
		end := start + 1.0
		r2.inst.OnInterval(sim.Interval{Process: "p1", Node: "sp01", Module: "oned.f", Function: "setup",
			Kind: sim.KindIOWait, Start: start, End: end, Calls: 1})
		r2.inst.OnInterval(sim.Interval{Process: "p2", Node: "sp02", Module: "oned.f", Function: "setup",
			Kind: sim.KindIOWait, Start: start, End: end, Calls: 1})
		r2.now = end
		r2.c.Tick(r2.now)
	}
	for i := 0; i < 4; i++ {
		r2.step(1.0)
	}
	if n2.State != StateTrue {
		t.Errorf("cumulative consultant flipped too early: %v", n2.State)
	}
}

func TestDepthFirstPolicyDrillsDown(t *testing.T) {
	// Throttled to roughly one probe at a time, a depth-first search
	// reaches a deep conclusion before a breadth-first one does.
	deepKey := func(r *testRig) string {
		fn, _ := r.sp.Find("/Code/oned.f/main")
		p2, _ := r.sp.Find("/Process/p2")
		f := r.sp.WholeProgram().MustWithSelection(fn).MustWithSelection(p2)
		return NodeKey(ExcessiveSync, f)
	}
	timeToDeep := func(policy SearchPolicy) float64 {
		cfg := defaultTestConfig()
		cfg.CostLimit = 0.02
		cfg.Policy = policy
		r := newRig(t, cfg, Guidance{})
		if err := r.c.Start(0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3000; i++ {
			r.step(1.0)
			if n, ok := r.c.SHG().Lookup(deepKey(r)); ok && n.State == StateTrue {
				return r.now
			}
			if r.c.Quiesced() {
				break
			}
		}
		if n, ok := r.c.SHG().Lookup(deepKey(r)); ok && n.State == StateTrue {
			return r.now
		}
		t.Fatalf("policy %v never reached the deep conclusion", policy)
		return 0
	}
	bf := timeToDeep(BreadthFirst)
	df := timeToDeep(DepthFirst)
	if df >= bf {
		t.Errorf("depth-first (%.1f) not faster to depth than breadth-first (%.1f)", df, bf)
	}
}

func TestSearchPolicyString(t *testing.T) {
	if BreadthFirst.String() != "breadth-first" || DepthFirst.String() != "depth-first" {
		t.Error("policy strings wrong")
	}
	if SearchPolicy(9).String() == "" {
		t.Error("unknown policy string empty")
	}
}
