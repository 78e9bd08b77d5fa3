package dyninst

import (
	"testing"

	"repro/internal/metric"
	"repro/internal/resource"
	"repro/internal/sim"
)

// probeMix requests n probes cycling through metrics and foci that
// match, partly match and never match testIntervals.
func probeMix(t *testing.T, m *Manager, sp *resource.Space, n int) []*Probe {
	t.Helper()
	mets := []metric.ID{metric.CPUTime, metric.SyncWaitTime, metric.ExecTime, metric.MsgCount, metric.ProcCalls}
	foci := []resource.Focus{
		sp.WholeProgram(),
		focusOf(t, sp, "/Code/oned.f"),
		focusOf(t, sp, "/Code/oned.f/main", "/Process/p1"),
		focusOf(t, sp, "/Machine/sp02"),
		focusOf(t, sp, "/SyncObject/Message/tag_3_0"),
		focusOf(t, sp, "/Code/sweep.f/sweep1d"),
	}
	out := make([]*Probe, n)
	for i := range out {
		p := request(t, m, mets[i%len(mets)], foci[i%len(foci)], 0)
		out[i] = p
	}
	return out
}

func testIntervals() []sim.Interval {
	return []sim.Interval{
		{Labels: &sim.Labels{Process: "p1", Node: "sp01", Module: "oned.f", Function: "main"}, Kind: sim.KindCPU, Start: 1, End: 2.25, Calls: 1},
		{Labels: &sim.Labels{Process: "p2", Node: "sp02", Module: "oned.f", Function: "setup", Tag: "tag_3_0"}, Kind: sim.KindSyncWait, Start: 1.5, End: 3, Msgs: 1, Bytes: 64, Calls: 1},
		{Labels: &sim.Labels{Process: "p2", Node: "sp02", Module: "sweep.f", Function: "sweep1d"}, Kind: sim.KindCPU, Start: 3, End: 3.75, Calls: 1},
		{Labels: &sim.Labels{Process: "p1", Node: "sp01", Module: "oned.f", Function: "main", Tag: "tag_3_0"}, Kind: sim.KindSyncWait, Start: 2.25, End: 4, Calls: 1},
	}
}

func TestOnIntervalSteadyStateDoesNotAllocate(t *testing.T) {
	m, sp := newManager(t)
	probeMix(t, m, sp, 32)
	ivs := testIntervals()
	feed := func() {
		for _, iv := range ivs {
			m.OnInterval(iv)
		}
	}
	feed() // histograms grow to cover the intervals once
	if n := testing.AllocsPerRun(100, feed); n != 0 {
		t.Errorf("OnInterval with %d active probes allocates %v times", m.ActiveProbes(), n)
	}
}

// A removed probe is out of the dispatch path for good, and taking it
// out disturbs no other probe: the survivors read exactly what they
// read in a manager that never held it.
func TestRemovedProbeIsNeverReached(t *testing.T) {
	with, sp := newManager(t)
	before := probeMix(t, with, sp, 4)
	doomed := request(t, with, metric.ExecTime, sp.WholeProgram(), 0)
	after := probeMix(t, with, sp, 7)
	with.Remove(doomed, 0.75)
	if with.ActiveProbes() != 11 {
		t.Fatalf("ActiveProbes = %d after removing 1 of 12", with.ActiveProbes())
	}

	without, sp2 := newManager(t)
	want := append(probeMix(t, without, sp2, 4), probeMix(t, without, sp2, 7)...)

	for _, iv := range testIntervals() {
		with.OnInterval(iv)
		without.OnInterval(iv)
	}
	if doomed.hist.Total() != 0 || doomed.events != 0 {
		t.Errorf("removed probe accumulated %v s, %v events", doomed.hist.Total(), doomed.events)
	}
	var sum float64
	for i, p := range append(before, after...) {
		w := want[i]
		sum += p.hist.Total() + p.events
		if p.hist.Total() != w.hist.Total() || p.events != w.events || p.Value(4) != w.Value(4) {
			t.Errorf("probe %d (%s): %v s, %v events; want %v s, %v events", i, p.mt.met,
				p.hist.Total(), p.events, w.hist.Total(), w.events)
		}
	}
	if sum == 0 {
		t.Error("no surviving probe accumulated anything")
	}
	// Removing it again, or a probe of another manager, changes nothing.
	with.Remove(doomed, 5)
	with.Remove(want[0], 5)
	if with.ActiveProbes() != 11 || want[0].Removed() {
		t.Errorf("foreign or repeated Remove took effect: %d active", with.ActiveProbes())
	}
}
