package harness

import (
	"strings"
	"testing"
)

// The experiment tests run each harness once (single trial) and assert the
// paper's qualitative findings — the shapes that must reproduce.

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	res, err := NewEnv(nil).Table1(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]Table1Row{}
	for _, r := range res.Rows {
		rows[r.Variant] = r
	}
	base := rows["No Directives"]
	if !base.Reached[3] {
		t.Fatal("base run did not find its own bottleneck set")
	}
	for _, v := range []string{"All Prunes Only", "Historic Prunes Only", "Priorities Only", "Priorities & All Prunes"} {
		r := rows[v]
		if !r.Reached[3] {
			t.Fatalf("%s did not reach 100%%", v)
		}
		red := (base.Times[3] - r.Times[3]) / base.Times[3]
		if red < 0.30 {
			t.Errorf("%s reduction = %.0f%%, want >= 30%%", v, red*100)
		}
	}
	// The paper's ordering: the combined variant is the best.
	comb := rows["Priorities & All Prunes"].Times[3]
	for _, v := range []string{"All Prunes Only", "General Prunes Only", "Historic Prunes Only", "Priorities Only"} {
		if comb > rows[v].Times[3]+1e-9 {
			t.Errorf("combined (%.1f) slower than %s (%.1f)", comb, v, rows[v].Times[3])
		}
	}
	// Prunes reduce instrumentation volume dramatically.
	if rows["All Prunes Only"].PairsTested >= base.PairsTested/2 {
		t.Errorf("all prunes tested %d pairs vs base %d", rows["All Prunes Only"].PairsTested, base.PairsTested)
	}
	out := res.Render()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "No Directives") {
		t.Error("render incomplete")
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	res, err := Table2(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	byTh := map[float64]Table2Row{}
	for _, r := range res.Rows {
		byTh[r.Threshold] = r
	}
	// Higher thresholds miss significant bottlenecks; the optimum misses
	// none.
	if byTh[0.20].Missed == 0 {
		t.Error("default 20% threshold should miss part of the significant set")
	}
	if byTh[0.30].Missed <= byTh[0.20].Missed {
		t.Error("30% should miss more than 20%")
	}
	if byTh[0.12].Missed != 0 {
		t.Errorf("optimum threshold missed %d", byTh[0.12].Missed)
	}
	// Lowering the threshold below the optimum costs instrumentation
	// without improving the result: pairs grow, efficiency drops.
	if byTh[0.05].Pairs <= byTh[0.12].Pairs {
		t.Error("5% should test more pairs than 12%")
	}
	if byTh[0.05].Efficiency >= byTh[0.12].Efficiency {
		t.Error("efficiency should decrease below the optimum")
	}
	if byTh[0.10].Efficiency >= byTh[0.12].Efficiency {
		t.Error("efficiency should peak at 12%")
	}
	if !strings.Contains(res.Render(), "Table 2") {
		t.Error("render incomplete")
	}
}

func TestOceanThresholdOptimumDiffers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	res, err := OceanThresholds(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	byTh := map[float64]Table2Row{}
	for _, r := range res.Rows {
		byTh[r.Threshold] = r
	}
	// The ocean code's useful threshold is 20%: 25% and 30% miss much of
	// the set, 20% misses none, and going lower only adds instrumentation.
	if byTh[0.25].Missed == 0 || byTh[0.30].Missed == 0 {
		t.Error("thresholds above 20% should be incomplete for the ocean code")
	}
	if byTh[0.20].Missed != 0 {
		t.Errorf("20%% missed %d", byTh[0.20].Missed)
	}
	if byTh[0.10].Pairs <= byTh[0.20].Pairs {
		t.Error("10% should cost more instrumentation than 20%")
	}
}

func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	res, err := NewEnv(nil).Table3(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range PoissonVersions {
		base := res.Cells[target]["None"]
		if !base.Reached {
			t.Fatalf("base run for %s incomplete", target)
		}
		for _, src := range PoissonVersions {
			c := res.Cells[target][src]
			if !c.Reached {
				t.Errorf("%s from %s did not find the full set", target, src)
				continue
			}
			red := (base.Time - c.Time) / base.Time
			if red < 0.30 {
				t.Errorf("%s from %s reduction = %.0f%%, want >= 30%%", target, src, red*100)
			}
			if src != target && c.Mappings == 0 {
				t.Errorf("cross-version %s<-%s used no mappings", target, src)
			}
		}
	}
	if !strings.Contains(res.Render(), "Table 3") {
		t.Error("render incomplete")
	}
}

func TestTable4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	res, err := NewEnv(nil).Table4(1)
	if err != nil {
		t.Fatal(err)
	}
	high := res.Counts["High"]
	if high["TOTAL"] == 0 {
		t.Fatal("no high-priority directives counted")
	}
	// A meaningful fraction of high-priority directives is common to all
	// three versions (the paper found 43%).
	if frac := float64(high["A,B,C"]) / float64(high["TOTAL"]); frac < 0.15 {
		t.Errorf("common high fraction = %.2f, want >= 0.15", frac)
	}
	// Region counts add up.
	sum := 0
	for _, r := range Table4Regions[:7] {
		sum += high[r]
	}
	if sum != high["TOTAL"] {
		t.Errorf("regions sum to %d, total %d", sum, high["TOTAL"])
	}
	both := res.Counts["Both"]
	if both["TOTAL"] < high["TOTAL"] {
		t.Error("Both should cover at least the highs")
	}
	if !strings.Contains(res.Render(), "Table 4") {
		t.Error("render incomplete")
	}
}

func TestCombineStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	res, err := NewEnv(nil).CombineStudy(1)
	if err != nil {
		t.Fatal(err)
	}
	// The directed rerun reaches conclusions the base run never tested.
	if res.A2New == 0 {
		t.Error("a2 found nothing beyond a1's concluded pairs")
	}
	if res.A2True <= res.A1True {
		t.Errorf("a2 (%d) should be a more detailed diagnosis than a1 (%d)", res.A2True, res.A1True)
	}
	if res.A2Mappings == 0 {
		t.Error("a1->a2 should require resource mappings")
	}
	// Both combinations diagnose C completely with similar times.
	if !res.AndReached || !res.OrReached {
		t.Fatal("a combination run missed part of the set")
	}
	ratio := res.AndTime / res.OrTime
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("A∩B (%.1f) and A∪B (%.1f) should be comparable", res.AndTime, res.OrTime)
	}
	// Intersection directives are a subset of union directives.
	if res.AndDirectives > res.OrDirectives {
		t.Error("A∩B produced more directives than A∪B")
	}
	if res.CommonDirectives != res.AndDirectives {
		t.Errorf("every A∩B directive should appear in A∪B: common=%d and=%d", res.CommonDirectives, res.AndDirectives)
	}
	if !strings.Contains(res.Render(), "A∩B") {
		t.Error("render incomplete")
	}
}

func TestFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	f1, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"verifya", "Tester:2", "</Code/testutil.C/verifya,/Machine,/Process/Tester:2,/SyncObject>"} {
		if !strings.Contains(f1, want) {
			t.Errorf("Figure1 missing %q", want)
		}
	}
	f2, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"TopLevelHypothesis", "CPUbound", "[true]", "[false]"} {
		if !strings.Contains(f2, want) {
			t.Errorf("Figure2 missing %q", want)
		}
	}
	// The Tester program is CPU-bound: sync and IO are false at top level.
	if !strings.Contains(f2, "ExcessiveSyncWaitingTime [false]") {
		t.Error("Figure2: sync hypothesis should be false for Tester")
	}
	f3, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"map /Code/exchng1.f /Code/nbexchng.f",
		"map /Code/oned.f /Code/onednb.f",
		"map /Code/sweep.f/sweep1d /Code/nbsweep.f/nbsweep",
		"oned.f  [1]",
		"onednb.f  [2]",
		"decomp.f  [3]",
	} {
		if !strings.Contains(f3, want) {
			t.Errorf("Figure3 missing %q", want)
		}
	}
}
