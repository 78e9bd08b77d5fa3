package harness

import (
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/consultant"
	"repro/internal/core"
	"repro/internal/sim"
)

func TestPostmortemStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	res, err := NewEnv(nil).PostmortemStudy(1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SHGReached || !res.PostReached {
		t.Fatal("a directed run missed part of the bottleneck set")
	}
	if res.SHGTime >= res.BaseTime || res.PostTime >= res.BaseTime {
		t.Errorf("directed runs not faster: base=%.1f shg=%.1f post=%.1f",
			res.BaseTime, res.SHGTime, res.PostTime)
	}
	// Postmortem directives should be competitive with SHG directives
	// (the trace sees everything; the SHG is cost-limited).
	if res.PostTime > res.SHGTime*2.5 {
		t.Errorf("postmortem harvest much weaker than SHG harvest: %.1f vs %.1f", res.PostTime, res.SHGTime)
	}
	if res.AgreeHigh < 0.5 {
		t.Errorf("postmortem/SHG High agreement = %.2f, want >= 0.5", res.AgreeHigh)
	}
	if !strings.Contains(res.Render(), "postmortem") {
		t.Error("render incomplete")
	}
}

func TestAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	res, err := NewEnv(nil).Ablation(1)
	if err != nil {
		t.Fatal(err)
	}
	byParam := map[string][]AblationRow{}
	for _, r := range res.Rows {
		byParam[r.Param] = append(byParam[r.Param], r)
	}
	// A looser cost limit means a faster (less throttled) search.
	cl := byParam["cost-limit"]
	for i := 1; i < len(cl); i++ {
		if cl[i].EndTime >= cl[i-1].EndTime {
			t.Errorf("cost-limit %g not faster than %g (%.1f vs %.1f)",
				cl[i].Value, cl[i-1].Value, cl[i].EndTime, cl[i-1].EndTime)
		}
		if cl[i].StallEvents >= cl[i-1].StallEvents {
			t.Errorf("cost-limit %g should stall less than %g", cl[i].Value, cl[i-1].Value)
		}
	}
	// The peak cost never exceeds the configured limit.
	for _, r := range cl {
		if r.MaxCost > r.Value+1e-9 {
			t.Errorf("cost limit %g exceeded: peak %.3f", r.Value, r.MaxCost)
		}
	}
	// Longer insertion latency and test interval slow the diagnosis.
	for _, p := range []string{"insert-latency", "test-interval"} {
		rows := byParam[p]
		for i := 1; i < len(rows); i++ {
			if rows[i].EndTime <= rows[i-1].EndTime {
				t.Errorf("%s %g should be slower than %g", p, rows[i].Value, rows[i-1].Value)
			}
		}
	}
	// Costlier sync probes slow the search and eventually lose coverage.
	sf := byParam["sync-cost-factor"]
	if sf[len(sf)-1].EndTime <= sf[0].EndTime {
		t.Error("sync cost factor had no effect")
	}
	if !strings.Contains(res.Render(), "Ablation") {
		t.Error("render incomplete")
	}
}

func TestSessionWithExtendedHypotheses(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	a, err := app.Poisson("C", app.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSessionConfig()
	cfg.Hypotheses = consultant.ExtendedHypotheses()
	cfg.RunID = "ext"
	res, err := RunSession(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quiesced {
		t.Fatal("extended search did not quiesce")
	}
	// The sub-hypotheses were spawned under true sync nodes.
	sawChild := false
	for _, n := range res.Consultant.SHG().Nodes() {
		if n.Hyp.Name == consultant.FrequentMessages || n.Hyp.Name == consultant.LargeMessageVolume {
			sawChild = true
			break
		}
	}
	if !sawChild {
		t.Error("no extended sub-hypothesis nodes in the SHG")
	}
	// The record round-trips through harvesting (extended hypothesis
	// names are carried transparently).
	ds := core.Harvest(res.Record, core.HarvestAll())
	if ds.Len() == 0 {
		t.Error("empty harvest from extended run")
	}
}

func TestTimelineTracksPhases(t *testing.T) {
	tl, err := NewTimeline(1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Bin 0: both procs compute. Bin 1: both wait on I/O.
	tl.OnInterval(simInterval("p1", sim.KindCPU, 0, 1))
	tl.OnInterval(simInterval("p2", sim.KindCPU, 0, 1))
	tl.OnInterval(simInterval("p1", sim.KindIOWait, 1, 2))
	tl.OnInterval(simInterval("p2", sim.KindIOWait, 1, 2))
	cpu, syncW, io := tl.Fractions(0)
	if cpu != 1 || syncW != 0 || io != 0 {
		t.Errorf("bin 0 = %v %v %v", cpu, syncW, io)
	}
	cpu, _, io = tl.Fractions(1)
	if cpu != 0 || io != 1 {
		t.Errorf("bin 1 = %v io %v", cpu, io)
	}
	csv := tl.CSV()
	if !strings.Contains(csv, "time,cpu,sync_wait,io_wait") || tl.Bins() != 2 {
		t.Errorf("csv = %q bins=%d", csv, tl.Bins())
	}
	if _, err := NewTimeline(1, 0); err == nil {
		t.Error("zero procs accepted")
	}
}

func simInterval(proc string, kind sim.Kind, start, end float64) sim.Interval {
	return sim.Interval{Process: proc, Node: "n-" + proc, Module: "m", Function: "f",
		Kind: kind, Start: start, End: end}
}

func TestSessionTimelineAttached(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	a, err := app.Seismic(app.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSessionConfig()
	cfg.TimelineBinWidth = 1.0
	cfg.MaxTime = 60
	res, err := RunSession(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline == nil || res.Timeline.Bins() == 0 {
		t.Fatal("timeline not attached")
	}
	// The seismic workload is I/O-dominated in every populated bin region.
	var cpu, io float64
	for i := 0; i < res.Timeline.Bins(); i++ {
		c, _, o := res.Timeline.Fractions(i)
		cpu += c
		io += o
	}
	if io <= cpu {
		t.Errorf("timeline shows io=%v <= cpu=%v for an I/O-bound code", io, cpu)
	}
}

func TestScaleStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	res, err := NewEnv(nil).ScaleStudy([]int{4, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if !r.Reached {
			t.Errorf("procs=%d: directed run missed part of the set", r.Procs)
			continue
		}
		if r.DirectedTime >= r.BaseTime {
			t.Errorf("procs=%d: directives did not help (%.1f vs %.1f)", r.Procs, r.DirectedTime, r.BaseTime)
		}
		if r.DirPairs >= r.BasePairs {
			t.Errorf("procs=%d: directed search tested more pairs", r.Procs)
		}
	}
	// The search space grows steeply with the machine.
	if res.Rows[1].BasePairs <= res.Rows[0].BasePairs {
		t.Error("pairs did not grow with machine size")
	}
	if !strings.Contains(res.Render(), "Scale study") {
		t.Error("render incomplete")
	}
}
