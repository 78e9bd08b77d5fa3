package postmortem

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/consultant"
	"repro/internal/dyninst"
	"repro/internal/metric"
	"repro/internal/resource"
	"repro/internal/sim"
)

func testSpace(t *testing.T) *resource.Space {
	t.Helper()
	sp := resource.NewStandardSpace()
	sp.MustAdd("/Code/oned.f/main")
	sp.MustAdd("/Code/sweep.f/sweep1d")
	sp.MustAdd("/Machine/sp01")
	sp.MustAdd("/Machine/sp02")
	sp.MustAdd("/Process/p1")
	sp.MustAdd("/Process/p2")
	sp.MustAdd("/SyncObject/Message/tag_3_0")
	return sp
}

func testProcs() []dyninst.ProcEntry {
	return []dyninst.ProcEntry{{Name: "p1", Node: "sp01"}, {Name: "p2", Node: "sp02"}}
}

// feedTrace records 10 seconds of the miniature workload used by the
// consultant tests: p1 computes 80%/waits 20%, p2 computes 20%/waits 80%,
// all waits on tag_3_0 in oned.f/main.
func feedTrace(r *Recorder) {
	for i := 0; i < 10; i++ {
		t := float64(i)
		r.OnInterval(sim.Interval{Labels: &sim.Labels{Process: "p1", Node: "sp01", Module: "sweep.f", Function: "sweep1d"},
			Kind: sim.KindCPU, Start: t, End: t + 0.8, Calls: 1})
		r.OnInterval(sim.Interval{Labels: &sim.Labels{Process: "p1", Node: "sp01", Module: "oned.f", Function: "main", Tag: "tag_3_0"},
			Kind: sim.KindSyncWait, Start: t + 0.8, End: t + 1, Msgs: 1, Bytes: 100, Calls: 1})
		r.OnInterval(sim.Interval{Labels: &sim.Labels{Process: "p2", Node: "sp02", Module: "sweep.f", Function: "sweep1d"},
			Kind: sim.KindCPU, Start: t, End: t + 0.2, Calls: 1})
		r.OnInterval(sim.Interval{Labels: &sim.Labels{Process: "p2", Node: "sp02", Module: "oned.f", Function: "main", Tag: "tag_3_0"},
			Kind: sim.KindSyncWait, Start: t + 0.2, End: t + 1, Calls: 1})
	}
}

func newEvaluator(t *testing.T) (*Evaluator, *resource.Space) {
	t.Helper()
	sp := testSpace(t)
	rec := NewRecorder()
	feedTrace(rec)
	ev, err := NewEvaluator(sp, testProcs(), rec, 10)
	if err != nil {
		t.Fatal(err)
	}
	return ev, sp
}

func TestRecorderAggregates(t *testing.T) {
	rec := NewRecorder()
	feedTrace(rec)
	if rec.End() != 10 {
		t.Errorf("End = %v", rec.End())
	}
	// 4 distinct attribution combinations regardless of trace length.
	if len(rec.aggs) != 4 {
		t.Errorf("Combinations = %d", len(rec.aggs))
	}
}

func TestEvaluatorValues(t *testing.T) {
	ev, sp := newEvaluator(t)
	v, err := ev.Value(metric.CPUTime, sp.WholeProgram())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.5) > 1e-9 { // (8 + 2) / (10*2)
		t.Errorf("whole-program cpu = %v, want 0.5", v)
	}
	p2, _ := sp.Find("/Process/p2")
	f := sp.WholeProgram().MustWithSelection(p2)
	v, _ = ev.Value(metric.SyncWaitTime, f)
	if math.Abs(v-0.8) > 1e-9 {
		t.Errorf("p2 sync = %v, want 0.8", v)
	}
	tag, _ := sp.Find("/SyncObject/Message/tag_3_0")
	ft := sp.WholeProgram().MustWithSelection(tag)
	v, _ = ev.Value(metric.SyncWaitTime, ft)
	if math.Abs(v-0.5) > 1e-9 { // (2 + 8)/(10*2)
		t.Errorf("tag sync = %v, want 0.5", v)
	}
	// Event metric: 10 messages over 10s x 2 procs.
	v, _ = ev.Value(metric.MsgCount, sp.WholeProgram())
	if math.Abs(v-0.5) > 1e-9 {
		t.Errorf("msg rate = %v, want 0.5", v)
	}
}

func TestEvaluatorValidation(t *testing.T) {
	sp := testSpace(t)
	if _, err := NewEvaluator(nil, testProcs(), NewRecorder(), 1); err == nil {
		t.Error("nil space accepted")
	}
	if _, err := NewEvaluator(sp, nil, NewRecorder(), 1); err == nil {
		t.Error("no procs accepted")
	}
	if _, err := NewEvaluator(sp, testProcs(), NewRecorder(), 0); err == nil {
		t.Error("empty trace accepted")
	}
	rec := NewRecorder()
	feedTrace(rec)
	ev, err := NewEvaluator(sp, testProcs(), rec, 0)
	if err != nil {
		t.Fatalf("elapsed should default to trace end: %v", err)
	}
	if ev.elapsed != 10 {
		t.Errorf("elapsed = %v", ev.elapsed)
	}
}

func TestEvaluateRefinesTopDown(t *testing.T) {
	ev, _ := newEvaluator(t)
	shg, err := ev.Evaluate(consultant.StandardHypotheses(), nil)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]string{}
	for _, n := range shg.Nodes() {
		byKey[n.Key()] = n.State.String()
	}
	whole := "</Code,/Machine,/Process,/SyncObject>"
	if byKey[consultant.CPUBound+" "+whole] != "true" {
		t.Error("whole-program CPU should be true (0.5 > 0.3)")
	}
	if byKey[consultant.ExcessiveSync+" "+whole] != "true" {
		t.Error("whole-program sync should be true")
	}
	if byKey[consultant.ExcessiveIO+" "+whole] != "false" {
		t.Error("whole-program IO should be false")
	}
	// Refinement reached the specific conclusions.
	if byKey[consultant.ExcessiveSync+" </Code,/Machine,/Process/p2,/SyncObject>"] != "true" {
		t.Error("p2 sync refinement missing")
	}
	if byKey[consultant.ExcessiveSync+" </Code,/Machine,/Process,/SyncObject/Message/tag_3_0>"] != "true" {
		t.Error("tag refinement missing")
	}
	// False pairs are not refined: IO's children must be absent.
	if _, ok := byKey[consultant.ExcessiveIO+" </Code/oned.f,/Machine,/Process,/SyncObject>"]; ok {
		t.Error("false IO node was refined")
	}
	// The diagnosis leaves the Performance Consultant's own graph behind:
	// a pair reachable by two refinements is one node under both parents.
	byProc := consultant.ExcessiveSync + " </Code,/Machine,/Process/p2,/SyncObject>"
	byMsg := consultant.ExcessiveSync + " </Code,/Machine,/Process,/SyncObject/Message>"
	bothFocus, err := resource.ParseFocus(ev.space, "</Code,/Machine,/Process/p2,/SyncObject/Message>")
	if err != nil {
		t.Fatal(err)
	}
	shared, ok := shg.Lookup(consultant.ExcessiveSync, bothFocus)
	if !ok {
		t.Fatal("the pair under both the p2 and the Message refinement is missing")
	}
	var parents []string
	for _, p := range shared.Parents() {
		parents = append(parents, p.Key())
	}
	if !slices.Equal(parents, []string{byProc, byMsg}) {
		t.Errorf("shared pair's parents = %q, want the p2 and the Message refinements", parents)
	}
	if shg.Root().State != consultant.StateTrue || len(shg.Root().Children()) != 3 {
		t.Errorf("root is %v with %d children", shg.Root().State, len(shg.Root().Children()))
	}
	for what, text := range map[string]string{"Render": shg.Render(), "DOT": shg.DOT()} {
		if !strings.Contains(text, "/Process/p2,/SyncObject/Message>") || !strings.Contains(text, consultant.ExcessiveIO) {
			t.Errorf("%s does not print the trace diagnosis:\n%s", what, text)
		}
	}
	// Thresholds override.
	shg2, _ := ev.Evaluate(consultant.StandardHypotheses(), map[string]float64{consultant.ExcessiveSync: 0.9})
	if n, ok := shg2.Lookup(consultant.ExcessiveSync, ev.space.WholeProgram()); !ok || n.State != consultant.StateFalse || n.Threshold != 0.9 {
		t.Errorf("threshold override not applied: %+v", n)
	}
}

func TestBuildRecordIsHarvestable(t *testing.T) {
	ev, _ := newEvaluator(t)
	rec, err := ev.BuildRecord("mini", "X", "trace1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
	if rec.TrueCount == 0 {
		t.Error("no true results recorded")
	}
	if !rec.MachineRedundant() {
		t.Error("1:1 proc/node map not recorded")
	}
	if rec.Usage["/Code/sweep.f"] <= 0 || rec.Usage["/SyncObject/Message/tag_3_0"] <= 0 {
		t.Error("usage fractions missing")
	}
	if len(rec.Resources["Code"]) == 0 {
		t.Error("resources missing")
	}
	// The record's usage for the hot code matches the trace.
	if math.Abs(rec.Usage["/Code/sweep.f/sweep1d"]-0.5) > 1e-9 {
		t.Errorf("sweep usage = %v", rec.Usage["/Code/sweep.f/sweep1d"])
	}
}

func TestEvaluateRejectsBadRoot(t *testing.T) {
	ev, _ := newEvaluator(t)
	if _, err := ev.Evaluate(nil, nil); err == nil {
		t.Error("nil root accepted")
	}
	if _, err := ev.Evaluate(&consultant.Hypothesis{Name: "solo"}, nil); err == nil {
		t.Error("childless root accepted")
	}
}

func TestEvaluateWithExtendedHypotheses(t *testing.T) {
	ev, _ := newEvaluator(t)
	// Lower the message-rate threshold below the trace's actual rate so
	// the sub-hypothesis under ExcessiveSyncWaitingTime tests true.
	shg, err := ev.Evaluate(consultant.ExtendedHypotheses(),
		map[string]float64{consultant.FrequentMessages: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	whole := "</Code,/Machine,/Process,/SyncObject>"
	seen := map[string]string{}
	for _, n := range shg.Nodes() {
		seen[n.Key()] = n.State.String()
	}
	if seen[consultant.FrequentMessages+" "+whole] != "true" {
		t.Error("child hypothesis not evaluated postmortem")
	}
	if st, ok := seen[consultant.LargeMessageVolume+" "+whole]; !ok || st != "false" {
		t.Errorf("LargeMessageVolume = %q (100 B/s << threshold)", st)
	}
}
