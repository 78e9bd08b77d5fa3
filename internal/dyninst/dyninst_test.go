package dyninst

import (
	"errors"
	"math"
	"testing"

	"repro/internal/metric"
	"repro/internal/resource"
	"repro/internal/sim"
)

func testSpace(t *testing.T) *resource.Space {
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
	return sp
}

func testProcs() []ProcEntry {
	return []ProcEntry{{Name: "p1", Node: "sp01"}, {Name: "p2", Node: "sp02"}}
}

func newManager(t *testing.T) (*Manager, *resource.Space) {
	t.Helper()
	sp := testSpace(t)
	m, err := NewManager(DefaultConfig(), sp, testProcs())
	if err != nil {
		t.Fatal(err)
	}
	return m, sp
}

func focusOf(t *testing.T, sp *resource.Space, paths ...string) resource.Focus {
	t.Helper()
	f := sp.WholeProgram()
	for _, p := range paths {
		r, ok := sp.Find(p)
		if !ok {
			t.Fatalf("missing resource %s", p)
		}
		f = f.MustWithSelection(r)
	}
	return f
}

func TestNewManagerValidation(t *testing.T) {
	sp := testSpace(t)
	cfg := DefaultConfig()
	cfg.BinWidth = 0
	if _, err := NewManager(cfg, sp, testProcs()); err == nil {
		t.Error("zero bin width accepted")
	}
	cfg = DefaultConfig()
	cfg.CostPerProcProbe = -1
	if _, err := NewManager(cfg, sp, testProcs()); err == nil {
		t.Error("negative cost accepted")
	}
	if _, err := NewManager(DefaultConfig(), sp, nil); err == nil {
		t.Error("no processes accepted")
	}
}

func TestRequestAndCostAccounting(t *testing.T) {
	m, sp := newManager(t)
	cfg := DefaultConfig()
	whole := sp.WholeProgram()
	p, err := m.Request(metric.CPUTime, whole, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.width != 2 {
		t.Errorf("width = %d, want 2", p.width)
	}
	if got := m.TotalCost(); math.Abs(got-cfg.CostPerProcProbe) > 1e-12 {
		t.Errorf("TotalCost = %v, want %v", got, cfg.CostPerProcProbe)
	}
	if m.ActiveProbes() != 1 || m.TotalRequests() != 1 {
		t.Errorf("probe counts wrong: %d active, %d total", m.ActiveProbes(), m.TotalRequests())
	}
	// A process-narrow probe costs half the average.
	narrow := focusOf(t, sp, "/Process/p1")
	p2, err := m.Request(metric.SyncWaitTime, narrow, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p2.width != 1 {
		t.Errorf("narrow width = %d", p2.width)
	}
	wantCost := cfg.CostPerProcProbe + cfg.CostPerProcProbe/2
	if got := m.TotalCost(); math.Abs(got-wantCost) > 1e-12 {
		t.Errorf("TotalCost = %v, want %v", got, wantCost)
	}
	// Removal returns cost to zero.
	m.Remove(p, 1)
	m.Remove(p2, 1)
	if got := m.TotalCost(); got != 0 {
		t.Errorf("TotalCost after removal = %v", got)
	}
	if m.ActiveProbes() != 0 {
		t.Error("probes still active")
	}
	if !p.Removed() {
		t.Error("probe not marked removed")
	}
	// Double remove is harmless.
	m.Remove(p, 2)
	if m.TotalCost() != 0 {
		t.Error("double remove corrupted cost")
	}
}

func TestSyncConstrainedProbesCostMore(t *testing.T) {
	m, sp := newManager(t)
	cfg := DefaultConfig()
	tagged := focusOf(t, sp, "/SyncObject/Message/tag_3_0")
	want := cfg.CostPerProcProbe * cfg.SyncConstrainedCostFactor
	if got := m.CostOf(metric.SyncWaitTime, tagged); math.Abs(got-want) > 1e-12 {
		t.Errorf("CostOf tagged = %v, want %v", got, want)
	}
	p, err := m.Request(metric.SyncWaitTime, tagged, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.TotalCost(); math.Abs(got-want) > 1e-12 {
		t.Errorf("TotalCost = %v, want %v", got, want)
	}
	m.Remove(p, 1)
	if m.TotalCost() != 0 {
		t.Error("tagged probe removal did not restore cost")
	}
}

func TestSlowdownTracksPerProcessCost(t *testing.T) {
	m, sp := newManager(t)
	cfg := DefaultConfig()
	narrow := focusOf(t, sp, "/Process/p1")
	_, _ = m.Request(metric.CPUTime, narrow, 0)
	if got := m.Slowdown(0); math.Abs(got-(1+cfg.CostPerProcProbe)) > 1e-12 {
		t.Errorf("Slowdown(0), p1's rank, = %v", got)
	}
	if got := m.Slowdown(1); got != 1 {
		t.Errorf("Slowdown(1), p2's rank, = %v, want 1", got)
	}
}

func TestProbeAccumulationAndClipping(t *testing.T) {
	m, sp := newManager(t)
	cfg := DefaultConfig()
	p, _ := m.Request(metric.CPUTime, sp.WholeProgram(), 0) // active at 0.5
	iv := sim.Interval{
		Labels: &sim.Labels{Process: "p1", Node: "sp01", Module: "oned.f", Function: "main"},
		Kind:   sim.KindCPU, Start: 0, End: 1, Calls: 1,
	}
	m.OnInterval(iv)
	// Only [activeAt, 1) counts.
	want := 1 - cfg.InsertLatency
	if got := p.hist.Total(); math.Abs(got-want) > 1e-9 {
		t.Errorf("accumulated = %v, want %v", got, want)
	}
	// Value at t=1.5: window = 1.0s, width 2 -> accumulated/(1.0*2).
	if got := p.Value(1.5); math.Abs(got-want/2) > 1e-9 {
		t.Errorf("Value = %v, want %v", got, want/2)
	}
	// Intervals entirely before activation are lost.
	before, _ := m.Request(metric.CPUTime, sp.WholeProgram(), 10)
	m.OnInterval(iv)
	if before.hist.Total() != 0 {
		t.Error("interval before activation accumulated")
	}
}

func TestMetricKindFiltering(t *testing.T) {
	m, sp := newManager(t)
	cpu, _ := m.Request(metric.CPUTime, sp.WholeProgram(), -1)
	sync, _ := m.Request(metric.SyncWaitTime, sp.WholeProgram(), -1)
	io, _ := m.Request(metric.IOWaitTime, sp.WholeProgram(), -1)
	exec, _ := m.Request(metric.ExecTime, sp.WholeProgram(), -1)
	emit := func(kind sim.Kind) {
		m.OnInterval(sim.Interval{
			Labels: &sim.Labels{Process: "p1", Node: "sp01", Module: "oned.f", Function: "main"},
			Kind:   kind, Start: 0, End: 1,
		})
	}
	emit(sim.KindCPU)
	emit(sim.KindSyncWait)
	emit(sim.KindIOWait)
	if cpu.hist.Total() != 1 || sync.hist.Total() != 1 || io.hist.Total() != 1 {
		t.Errorf("kind filtering wrong: cpu=%v sync=%v io=%v",
			cpu.hist.Total(), sync.hist.Total(), io.hist.Total())
	}
	if exec.hist.Total() != 3 {
		t.Errorf("exec time should accumulate all kinds, got %v", exec.hist.Total())
	}
}

func TestEventMetrics(t *testing.T) {
	m, sp := newManager(t)
	msgs, _ := m.Request(metric.MsgCount, sp.WholeProgram(), -1)
	bytes, _ := m.Request(metric.MsgBytes, sp.WholeProgram(), -1)
	calls, _ := m.Request(metric.ProcCalls, sp.WholeProgram(), -1)
	m.OnInterval(sim.Interval{
		Labels: &sim.Labels{Process: "p1", Node: "sp01", Module: "oned.f", Function: "main", Tag: "tag_3_0"},
		Kind:   sim.KindSyncWait, Start: 0, End: 2, Msgs: 1, Bytes: 512, Calls: 1,
	})
	// Events per second per process at t=2: window 3 (active at -0.5), width 2.
	w := msgs.ObservedWindow(2)
	if got := msgs.Value(2); math.Abs(got-1/(w*2)) > 1e-9 {
		t.Errorf("msg rate = %v", got)
	}
	if got := bytes.Value(2); math.Abs(got-512/(w*2)) > 1e-9 {
		t.Errorf("byte rate = %v", got)
	}
	if got := calls.Value(2); math.Abs(got-1/(w*2)) > 1e-9 {
		t.Errorf("call rate = %v", got)
	}
}

func TestRequestValidation(t *testing.T) {
	m, sp := newManager(t)
	if _, err := m.Request("bogus", sp.WholeProgram(), 0); err == nil {
		t.Error("unknown metric accepted")
	}
	other := testSpace(t)
	if _, err := m.Request(metric.CPUTime, other.WholeProgram(), 0); err == nil {
		t.Error("focus from another space accepted")
	}
	if _, err := m.Request(metric.CPUTime, resource.Focus{}, 0); err == nil {
		t.Error("zero focus accepted")
	}
}

func TestValueBeforeActivation(t *testing.T) {
	m, sp := newManager(t)
	p, _ := m.Request(metric.CPUTime, sp.WholeProgram(), 0)
	if p.Value(0.1) != 0 {
		t.Error("value before activation should be 0")
	}
	if p.ObservedWindow(0.1) != 0 {
		t.Error("window before activation should be 0")
	}
}

func TestObservedWindowStopsAtRemoval(t *testing.T) {
	m, sp := newManager(t)
	p, _ := m.Request(metric.CPUTime, sp.WholeProgram(), 0)
	m.Remove(p, 3)
	if got := p.ObservedWindow(10); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("window after removal = %v, want 2.5", got)
	}
}

func TestMaxCostSeen(t *testing.T) {
	m, sp := newManager(t)
	p, _ := m.Request(metric.CPUTime, sp.WholeProgram(), 0)
	peak := m.TotalCost()
	m.Remove(p, 1)
	if m.MaxCostSeen() != peak {
		t.Errorf("MaxCostSeen = %v, want %v", m.MaxCostSeen(), peak)
	}
}

func TestValueOverRecentWindow(t *testing.T) {
	m, sp := newManager(t)
	p, _ := m.Request(metric.CPUTime, sp.WholeProgram(), -0.5) // active at 0
	// First 10 seconds: p1 fully busy. Next 10 seconds: idle.
	m.OnInterval(sim.Interval{Labels: &sim.Labels{Process: "p1", Node: "sp01", Module: "oned.f", Function: "main"},
		Kind: sim.KindCPU, Start: 0, End: 10})
	// Cumulative at t=20: 10s over 20s x 2 procs = 0.25.
	if got := p.Value(20); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("cumulative = %v", got)
	}
	// Recent 5s window at t=20: nothing.
	if got := p.ValueOver(20, 5); got != 0 {
		t.Errorf("recent window = %v, want 0", got)
	}
	// Recent 5s window at t=10: fully busy on one of two procs.
	if got := p.ValueOver(10, 5); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("recent window at t=10 = %v, want 0.5", got)
	}
	// Window larger than lifetime clips to the lifetime.
	if got := p.ValueOver(10, 100); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("clipped window = %v, want 0.5", got)
	}
	// Zero window falls back to cumulative.
	if got := p.ValueOver(20, 0); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("zero window = %v", got)
	}
}

func TestProbeAccessors(t *testing.T) {
	m, sp := newManager(t)
	f := focusOf(t, sp, "/Process/p1")
	p, _ := m.Request(metric.CPUTime, f, 0)
	if p.id == 0 {
		t.Error("ID not assigned")
	}
	if p.met != metric.CPUTime {
		t.Errorf("Metric = %v", p.met)
	}
	if !p.focus.Equal(f) {
		t.Error("Focus mismatch")
	}
}

func TestIntervalMatcherExported(t *testing.T) {
	_, sp := newManager(t)
	var im IntervalMatcher
	if err := im.Compile(metric.SyncWaitTime, focusOf(t, sp, "/Machine/sp01")); err != nil {
		t.Fatal(err)
	}
	if im.Metric() != metric.SyncWaitTime {
		t.Errorf("Metric = %v", im.Metric())
	}
	if !im.MatchesProc(ProcEntry{Name: "p1", Node: "sp01"}) {
		t.Error("MatchesProc rejected the right process")
	}
	if im.MatchesProc(ProcEntry{Name: "p2", Node: "sp02"}) {
		t.Error("MatchesProc accepted the wrong process")
	}
	if err := new(IntervalMatcher).Compile("bogus", sp.WholeProgram()); err == nil {
		t.Error("unknown metric accepted")
	}
	sp.MustAdd("/Process/p1/thread0")
	deep := focusOf(t, sp, "/Process/p1/thread0")
	if err := new(IntervalMatcher).Compile(metric.CPUTime, deep); !errors.Is(err, ErrTooDeep) {
		t.Errorf("too-deep focus: %v, want ErrTooDeep", err)
	}
}
