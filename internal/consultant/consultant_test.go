package consultant

import (
	"strings"
	"testing"

	"repro/internal/dyninst"
	"repro/internal/resource"
	"repro/internal/sim"
)

// testRig wires a consultant to a real instrumentation manager fed with
// synthetic intervals: a miniature two-process application whose process
// p1 spends 80% of its time computing in oned.f/main and 20% waiting on
// tag_3_0, while p2 does the reverse.
type testRig struct {
	t    *testing.T
	sp   *resource.Space
	inst *dyninst.Manager
	c    *Consultant
	now  float64
}

func newRig(t *testing.T, cfg Config, guid Guidance) *testRig {
	t.Helper()
	return newRigWithHyps(t, cfg, guid, StandardHypotheses())
}

func newRigWithHyps(t *testing.T, cfg Config, guid Guidance, hyps *Hypothesis) *testRig {
	t.Helper()
	sp := resource.NewStandardSpace()
	sp.MustAdd("/Code/oned.f/main")
	sp.MustAdd("/Code/oned.f/setup")
	sp.MustAdd("/Code/sweep.f/sweep1d")
	sp.MustAdd("/Machine/sp01")
	sp.MustAdd("/Machine/sp02")
	sp.MustAdd("/Process/p1")
	sp.MustAdd("/Process/p2")
	sp.MustAdd("/SyncObject/Message/tag_3_0")
	icfg := dyninst.DefaultConfig()
	icfg.InsertLatency = 0 // simpler timing in unit tests
	inst, err := dyninst.NewManager(icfg, sp, []dyninst.ProcEntry{
		{Name: "p1", Node: "sp01"}, {Name: "p2", Node: "sp02"},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg, sp, inst, hyps, guid)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{t: t, sp: sp, inst: inst, c: c}
}

// step advances virtual time by dt, feeding the synthetic workload's
// intervals for that window and ticking the consultant.
func (r *testRig) step(dt float64) {
	start, end := r.now, r.now+dt
	r.inst.OnInterval(sim.Interval{Labels: &sim.Labels{Process: "p1", Node: "sp01", Module: "oned.f", Function: "main"},
		Kind: sim.KindCPU, Start: start, End: start + 0.8*dt, Calls: 1})
	r.inst.OnInterval(sim.Interval{Labels: &sim.Labels{Process: "p1", Node: "sp01", Module: "oned.f", Function: "main", Tag: "tag_3_0"},
		Kind: sim.KindSyncWait, Start: start + 0.8*dt, End: end, Msgs: 1, Bytes: 256, Calls: 1})
	r.inst.OnInterval(sim.Interval{Labels: &sim.Labels{Process: "p2", Node: "sp02", Module: "sweep.f", Function: "sweep1d"},
		Kind: sim.KindCPU, Start: start, End: start + 0.2*dt, Calls: 1})
	r.inst.OnInterval(sim.Interval{Labels: &sim.Labels{Process: "p2", Node: "sp02", Module: "oned.f", Function: "main", Tag: "tag_3_0"},
		Kind: sim.KindSyncWait, Start: start + 0.2*dt, End: end, Calls: 1})
	r.now = end
	r.c.Tick(r.now)
}

func (r *testRig) runUntilQuiesced(maxSteps int) {
	r.t.Helper()
	if err := r.c.Start(r.now); err != nil {
		r.t.Fatal(err)
	}
	for i := 0; i < maxSteps && !r.c.Quiesced(); i++ {
		r.step(1.0)
	}
	if !r.c.Quiesced() {
		r.t.Fatalf("search did not quiesce in %d steps", maxSteps)
	}
}

func defaultTestConfig() Config {
	cfg := DefaultConfig()
	cfg.TestInterval = 2.0
	cfg.CostLimit = 1.0 // effectively unthrottled unless a test lowers it
	return cfg
}

func TestNewValidation(t *testing.T) {
	sp := resource.NewStandardSpace()
	inst, _ := dyninst.NewManager(dyninst.DefaultConfig(), sp, []dyninst.ProcEntry{{Name: "p", Node: "n"}})
	if _, err := New(Config{TestInterval: 0, CostLimit: 1}, sp, inst, StandardHypotheses(), Guidance{}); err == nil {
		t.Error("zero TestInterval accepted")
	}
	if _, err := New(Config{TestInterval: 1, CostLimit: 0}, sp, inst, StandardHypotheses(), Guidance{}); err == nil {
		t.Error("zero CostLimit accepted")
	}
	if _, err := New(Config{TestInterval: 1, CostLimit: 1}, sp, inst, &Hypothesis{Name: "x"}, Guidance{}); err == nil {
		t.Error("childless hypothesis root accepted")
	}
	// Every pair is compiled from a focus of the search's space, so the
	// manager must instrument that space.
	if _, err := New(Config{TestInterval: 1, CostLimit: 1}, resource.NewStandardSpace(), inst, StandardHypotheses(), Guidance{}); err == nil {
		t.Error("a manager of another space accepted")
	}
}

func TestSearchFindsTheRightBottlenecks(t *testing.T) {
	r := newRig(t, defaultTestConfig(), Guidance{})
	r.runUntilQuiesced(200)
	found := map[string]bool{}
	for _, n := range r.c.Bottlenecks() {
		found[n.Hyp.Name+" "+n.Focus.Name()] = true
	}
	// Whole-program: cpu = (0.8+0.2)/2 = 0.5 > 0.3; sync = 0.5 > 0.2.
	for _, want := range []string{
		"CPUbound </Code,/Machine,/Process,/SyncObject>",
		"ExcessiveSyncWaitingTime </Code,/Machine,/Process,/SyncObject>",
		// p1 computes 80% of the time.
		"CPUbound </Code,/Machine,/Process/p1,/SyncObject>",
		// p2 waits 80% of the time, all of it on tag_3_0.
		"ExcessiveSyncWaitingTime </Code,/Machine,/Process/p2,/SyncObject>",
		"ExcessiveSyncWaitingTime </Code,/Machine,/Process,/SyncObject/Message/tag_3_0>",
		// All waiting is in oned.f/main.
		"ExcessiveSyncWaitingTime </Code/oned.f/main,/Machine,/Process,/SyncObject>",
	} {
		if !found[want] {
			t.Errorf("missing bottleneck %s", want)
		}
	}
	// IO hypothesis must be false at the whole program (no IO at all).
	n, ok := r.c.SHG().Lookup(ExcessiveIO, r.sp.WholeProgram())
	if !ok || n.State != StateFalse {
		t.Errorf("ExcessiveIOBlockingTime whole-program state = %v", n.State)
	}
	// False nodes are not refined.
	if len(n.Children()) != 0 {
		t.Error("false node was refined")
	}
}

func TestFalseNodesReleaseInstrumentation(t *testing.T) {
	r := newRig(t, defaultTestConfig(), Guidance{})
	r.runUntilQuiesced(200)
	if got := r.inst.ActiveProbes(); got != 0 {
		t.Errorf("probes still active after quiescence: %d", got)
	}
}

func TestPruneGuidance(t *testing.T) {
	guid := Guidance{
		Prune: func(hyp string, f resource.Focus, _ string) bool {
			// Ignore the whole SyncObject hierarchy for every hypothesis.
			sel, ok := f.Selection(resource.HierSyncObject)
			return ok && !sel.IsRoot()
		},
	}
	r := newRig(t, defaultTestConfig(), guid)
	r.runUntilQuiesced(200)
	for _, n := range r.c.SHG().Nodes() {
		sel, _ := n.Focus.Selection(resource.HierSyncObject)
		if sel != nil && !sel.IsRoot() {
			if n.State != StatePruned {
				t.Errorf("SyncObject-constrained node %s %s not pruned: %v", n.Hyp.Name, n.Focus.Name(), n.State)
			}
		}
	}
	// Pruned pairs are never instrumented.
	for _, n := range r.c.SHG().Nodes() {
		if n.State == StatePruned && n.probe != nil {
			t.Error("pruned node has a probe")
		}
	}
}

func TestHighPriorityPairsStartImmediately(t *testing.T) {
	sp := resource.NewStandardSpace()
	_ = sp
	r := newRig(t, defaultTestConfig(), Guidance{})
	// Build the high pair against the rig's space.
	tag, _ := r.sp.Find("/SyncObject/Message/tag_3_0")
	deep := r.sp.WholeProgram().MustWithSelection(tag)
	r.c.search.guid.HighPairs = []HF{{Hyp: ExcessiveSync, Focus: deep}}
	if err := r.c.Start(0); err != nil {
		t.Fatal(err)
	}
	n, ok := r.c.SHG().Lookup(ExcessiveSync, deep)
	if !ok {
		t.Fatal("high pair not seeded")
	}
	if n.State != StateTesting {
		t.Errorf("high pair state = %v, want testing at start", n.State)
	}
	if !n.Persistent || n.Priority != High {
		t.Error("high pair not persistent/high")
	}
	// It concludes true without waiting for top-down refinement.
	r.step(1.0)
	r.step(1.0)
	r.step(1.0)
	if n.State != StateTrue {
		t.Errorf("high pair state after data = %v, want true", n.State)
	}
}

func TestLowPrioritySortsBehindMedium(t *testing.T) {
	// Throttle to one whole-program probe at a time and mark the sync
	// hypothesis Low: CPU and IO must be instrumented first.
	cfg := defaultTestConfig()
	cfg.CostLimit = 0.016 // one whole-program probe (0.015 avg) at a time
	guid := Guidance{
		Priority: func(hyp, _ string) Priority {
			if hyp == ExcessiveSync {
				return Low
			}
			return Medium
		},
	}
	r := newRig(t, cfg, guid)
	if err := r.c.Start(0); err != nil {
		t.Fatal(err)
	}
	cpu, _ := r.c.SHG().Lookup(CPUBound, r.sp.WholeProgram())
	sync, _ := r.c.SHG().Lookup(ExcessiveSync, r.sp.WholeProgram())
	if cpu.State != StateTesting {
		t.Errorf("cpu state = %v, want testing first", cpu.State)
	}
	if sync.State != StatePending {
		t.Errorf("low-priority sync state = %v, want pending", sync.State)
	}
}

func TestCostLimitThrottlesAndResumes(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.CostLimit = 0.016
	r := newRig(t, cfg, Guidance{})
	r.runUntilQuiesced(2000)
	if r.c.StallEvents() == 0 {
		t.Error("expected cost-limit stalls")
	}
	// Despite throttling, the search still completes and finds the
	// whole-program bottlenecks.
	found := map[string]bool{}
	for _, n := range r.c.Bottlenecks() {
		found[n.Hyp.Name+" "+n.Focus.Name()] = true
	}
	if !found["CPUbound </Code,/Machine,/Process,/SyncObject>"] {
		t.Error("throttled search missed the whole-program CPU bottleneck")
	}
}

func TestThresholdOverride(t *testing.T) {
	guid := Guidance{Thresholds: map[string]float64{ExcessiveSync: 0.9}}
	r := newRig(t, defaultTestConfig(), guid)
	r.runUntilQuiesced(200)
	n, _ := r.c.SHG().Lookup(ExcessiveSync, r.sp.WholeProgram())
	if n.State != StateFalse {
		t.Errorf("sync at 0.9 threshold = %v, want false (value ~0.5)", n.State)
	}
	if n.Threshold != 0.9 {
		t.Errorf("recorded threshold = %v", n.Threshold)
	}
}

func TestSHGDedupSharedChildren(t *testing.T) {
	r := newRig(t, defaultTestConfig(), Guidance{})
	r.runUntilQuiesced(200)
	seen := map[string]int{}
	for _, n := range r.c.SHG().Nodes() {
		seen[n.Key()]++
	}
	for k, c := range seen {
		if c != 1 {
			t.Errorf("node %s appears %d times", k, c)
		}
	}
	// A node reachable from two true parents has both recorded.
	multi := 0
	for _, n := range r.c.SHG().Nodes() {
		if len(n.Parents()) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("expected at least one shared (multi-parent) SHG node")
	}
}

func TestSHGIsAcyclic(t *testing.T) {
	r := newRig(t, defaultTestConfig(), Guidance{})
	r.runUntilQuiesced(200)
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[*Node]int{}
	var visit func(n *Node) bool
	visit = func(n *Node) bool {
		switch color[n] {
		case grey:
			return false
		case black:
			return true
		}
		color[n] = grey
		for _, c := range n.Children() {
			if !visit(c) {
				return false
			}
		}
		color[n] = black
		return true
	}
	if !visit(r.c.SHG().Root()) {
		t.Error("SHG contains a cycle")
	}
}

func TestRenderShowsStates(t *testing.T) {
	r := newRig(t, defaultTestConfig(), Guidance{})
	r.runUntilQuiesced(200)
	out := r.c.SHG().Render()
	for _, want := range []string{"TopLevelHypothesis", "CPUbound", "[true]", "[false]", "value="} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTickBeforeStartIsNoop(t *testing.T) {
	r := newRig(t, defaultTestConfig(), Guidance{})
	r.c.Tick(1.0)
	if r.c.Quiesced() {
		t.Error("unstarted search reports quiesced")
	}
	if r.c.TestedPairs() != 0 {
		t.Error("tick before start instrumented pairs")
	}
}

func TestDoubleStartFails(t *testing.T) {
	r := newRig(t, defaultTestConfig(), Guidance{})
	if err := r.c.Start(0); err != nil {
		t.Fatal(err)
	}
	if err := r.c.Start(0); err == nil {
		t.Error("double start accepted")
	}
}

func TestUnmeasurablePairConcludesFalse(t *testing.T) {
	// A pair whose focus is too deep for the instrumentation (machine
	// selection below node level) concludes false instead of wedging the
	// search, through Search.Unmeasurable as in the trace drivers: with
	// the threshold it would have been held to, and no probe.
	r := newRig(t, defaultTestConfig(), Guidance{})
	r.sp.MustAdd("/Machine/sp01/cpu0")
	r.runUntilQuiesced(400)
	deep, ok := r.sp.Find("/Machine/sp01/cpu0")
	if !ok {
		t.Fatal("missing deep machine resource")
	}
	f := r.sp.WholeProgram().MustWithSelection(deep)
	n, ok := r.c.SHG().Lookup(CPUBound, f)
	if !ok {
		t.Fatal("the search never reached the deep pair: CPUbound at /Machine/sp01 should test true and refine into it")
	}
	if n.State != StateFalse || n.Threshold != 0.3 || n.probe != nil {
		t.Errorf("unmeasurable pair: state %v, threshold %v, probe %v; want false, 0.3, none", n.State, n.Threshold, n.probe)
	}
}

func TestHypothesisHelpers(t *testing.T) {
	root := StandardHypotheses()
	if root.Find(CPUBound) == nil || root.Find(ExcessiveSync) == nil || root.Find(ExcessiveIO) == nil {
		t.Error("Find failed for a standard hypothesis")
	}
	if root.Find("nope") != nil {
		t.Error("Find found a ghost")
	}
	names := root.Names()
	if len(names) != 4 {
		t.Errorf("Names = %v", names)
	}
}

func TestParsePriority(t *testing.T) {
	for s, want := range map[string]Priority{"low": Low, "medium": Medium, "high": High, "HIGH": High} {
		got, err := ParsePriority(s)
		if err != nil || got != want {
			t.Errorf("ParsePriority(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePriority("urgent"); err == nil {
		t.Error("bad priority accepted")
	}
	if Low.String() != "low" || Medium.String() != "medium" || High.String() != "high" {
		t.Error("priority strings wrong")
	}
}

func TestNodeStateString(t *testing.T) {
	for st, want := range map[NodeState]string{
		StatePending: "pending", StateTesting: "testing", StateTrue: "true",
		StateFalse: "false", StatePruned: "pruned",
	} {
		if st.String() != want {
			t.Errorf("%v.String() = %q", int(st), st.String())
		}
	}
}
