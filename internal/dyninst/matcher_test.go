package dyninst

import (
	"testing"

	"repro/internal/metric"
	"repro/internal/sim"
)

func baseInterval() sim.Interval {
	return sim.Interval{
		Labels: &sim.Labels{Process: "p1", Node: "sp01", Module: "oned.f", Function: "main", Tag: "tag_3_0"},
		Kind:   sim.KindSyncWait, Start: 0, End: 1,
	}
}

func TestMatcherHierarchySelections(t *testing.T) {
	sp := testSpace(t)
	cases := []struct {
		name  string
		paths []string
		mut   func(*sim.Interval)
		want  bool
	}{
		{"whole program matches", nil, nil, true},
		{"module match", []string{"/Code/oned.f"}, nil, true},
		{"module mismatch", []string{"/Code/sweep.f"}, nil, false},
		{"function match", []string{"/Code/oned.f/main"}, nil, true},
		{"function mismatch", []string{"/Code/oned.f/setup"}, nil, false},
		{"machine match", []string{"/Machine/sp01"}, nil, true},
		{"machine mismatch", []string{"/Machine/sp02"}, nil, false},
		{"process match", []string{"/Process/p1"}, nil, true},
		{"process mismatch", []string{"/Process/p2"}, nil, false},
		{"any message tag", []string{"/SyncObject/Message"}, nil, true},
		{"message depth rejects untagged", []string{"/SyncObject/Message"},
			func(iv *sim.Interval) { iv.Tag = "" }, false},
		{"exact tag match", []string{"/SyncObject/Message/tag_3_0"}, nil, true},
		{"exact tag mismatch", []string{"/SyncObject/Message/tag_3_0"},
			func(iv *sim.Interval) { iv.Tag = "other" }, false},
		{"combined selections", []string{"/Code/oned.f/main", "/Process/p1", "/SyncObject/Message/tag_3_0"}, nil, true},
		{"combined with one mismatch", []string{"/Code/oned.f/main", "/Process/p2"}, nil, false},
	}
	for _, c := range cases {
		f := focusOf(t, sp, c.paths...)
		mt, err := newMatcher(metric.SyncWaitTime, f)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		iv := baseInterval()
		if c.mut != nil {
			c.mut(&iv)
		}
		if got := mt.matches(&iv); got != c.want {
			t.Errorf("%s: matches = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMatcherKindFilter(t *testing.T) {
	sp := testSpace(t)
	f := sp.WholeProgram()
	iv := baseInterval() // KindSyncWait
	mtCPU, _ := newMatcher(metric.CPUTime, f)
	if mtCPU.matches(&iv) {
		t.Error("cpu matcher accepted a sync interval")
	}
	mtSync, _ := newMatcher(metric.SyncWaitTime, f)
	if !mtSync.matches(&iv) {
		t.Error("sync matcher rejected a sync interval")
	}
	mtExec, _ := newMatcher(metric.ExecTime, f)
	if !mtExec.matches(&iv) {
		t.Error("exec matcher rejected an interval")
	}
}

func TestMatcherMatchesProc(t *testing.T) {
	sp := testSpace(t)
	mt, _ := newMatcher(metric.CPUTime, focusOf(t, sp, "/Machine/sp02"))
	if mt.matchesProc(ProcEntry{Name: "p1", Node: "sp01"}) {
		t.Error("matched a process on the wrong node")
	}
	if !mt.matchesProc(ProcEntry{Name: "p2", Node: "sp02"}) {
		t.Error("rejected a process on the selected node")
	}
	whole, _ := newMatcher(metric.CPUTime, sp.WholeProgram())
	if !whole.matchesProc(ProcEntry{Name: "p1", Node: "sp01"}) {
		t.Error("whole-program matcher rejected a process")
	}
}

func TestMatcherRejectsTooDeepSelections(t *testing.T) {
	sp := testSpace(t)
	// Build an artificially deep machine resource.
	sp.MustAdd("/Machine/sp01/cpu0")
	f := focusOf(t, sp, "/Machine/sp01/cpu0")
	if _, err := newMatcher(metric.CPUTime, f); err != ErrTooDeep {
		t.Errorf("too-deep machine selection: %v, want ErrTooDeep", err)
	}
	sp.MustAdd("/SyncObject/Message/tag_3_0/sub")
	f2 := focusOf(t, sp, "/SyncObject/Message/tag_3_0/sub")
	if _, err := newMatcher(metric.CPUTime, f2); err != ErrTooDeep {
		t.Errorf("too-deep syncobject selection: %v, want ErrTooDeep", err)
	}
}
