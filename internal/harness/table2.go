package harness

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/consultant"
	"repro/internal/core"
)

// Table2Row is one threshold setting's outcome.
type Table2Row struct {
	Threshold float64
	Reported  int // bottlenecks reported by the PC
	Pairs     int // hypothesis/focus pairs instrumented
	// Efficiency is significant bottlenecks found per pair tested; it
	// peaks at the optimum threshold and decreases below it (lowering the
	// threshold adds instrumentation without improving the result).
	Efficiency float64
	Missed     int // reference bottlenecks not reported
}

// Table2Result is the threshold study.
type Table2Result struct {
	App          string
	Hypothesis   string
	RefThreshold float64
	RefCount     int
	Rows         []Table2Row
}

// Table2 reproduces the paper's Table 2: the Performance Consultant's
// behaviour on the synchronization-dominated 2-D Poisson application under
// varying synchronization thresholds. The reference ("significant") set is
// the diagnosis at the optimum 12% setting; higher settings miss part of
// it, lower settings cost more instrumentation without adding bottlenecks.
func Table2(trials, workers int) (*Table2Result, error) {
	return thresholdSweep("poisson-C", consultant.ExcessiveSync, 0.12,
		[]float64{0.30, 0.20, 0.15, 0.12, 0.10, 0.05}, trials, workers,
		func() (*app.App, error) { return app.Poisson("C", app.Options{}) })
}

// OceanThresholds reproduces the paper's Section 4.2 companion study on
// the PVM ocean circulation code, whose optimal synchronization threshold
// sits near 20% rather than 12% — historical thresholds are
// application-specific.
func OceanThresholds(trials, workers int) (*Table2Result, error) {
	return thresholdSweep("ocean", consultant.ExcessiveSync, 0.20,
		[]float64{0.30, 0.25, 0.20, 0.15, 0.10}, trials, workers,
		func() (*app.App, error) { return app.Ocean(app.Options{}) })
}

func thresholdSweep(label, hyp string, refTh float64, thresholds []float64,
	trials, workers int, build func() (*app.App, error)) (*Table2Result, error) {

	if trials < 1 {
		trials = 1
	}
	out := &Table2Result{App: label, Hypothesis: hyp, RefThreshold: refTh}

	ref, err := runOneJob(sweepJob(build, hyp, refTh, 1))
	if err != nil {
		return nil, err
	}
	refSet := ref.BottleneckKeys(false)
	out.RefCount = len(refSet)

	// Every (threshold, trial) session is independent: one flat job list.
	jobs := make([]SessionJob, 0, len(thresholds)*trials)
	for _, th := range thresholds {
		for trial := 0; trial < trials; trial++ {
			jobs = append(jobs, sweepJob(build, hyp, th, int64(trial+1)))
		}
	}
	results, err := RunSessions(jobs, workers)
	if err != nil {
		return nil, err
	}

	for ti, th := range thresholds {
		var reported, pairs, missed []float64
		for _, res := range results[ti*trials : (ti+1)*trials] {
			got := res.BottleneckKeys(false)
			miss := 0
			for k := range refSet {
				if !got[k] {
					miss++
				}
			}
			reported = append(reported, float64(len(res.Bottlenecks)))
			pairs = append(pairs, float64(res.PairsTested))
			missed = append(missed, float64(miss))
		}
		row := Table2Row{
			Threshold: th,
			Reported:  int(median(reported)),
			Pairs:     int(median(pairs)),
			Missed:    int(median(missed)),
		}
		if row.Pairs > 0 {
			row.Efficiency = float64(out.RefCount-row.Missed) / float64(row.Pairs)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func sweepJob(build func() (*app.App, error), hyp string, th float64, seed int64) SessionJob {
	cfg := DefaultSessionConfig()
	cfg.Sim.Seed = seed
	cfg.RunID = fmt.Sprintf("sweep-%.2f-%d", th, seed)
	cfg.Directives = &core.DirectiveSet{
		Source:     "threshold sweep",
		Thresholds: []core.ThresholdDirective{{Hypothesis: hyp, Value: th}},
	}
	return SessionJob{Build: build, Cfg: cfg}
}

// Render formats the sweep like the paper's Table 2.
func (t *Table2Result) Render() string {
	header := []string{
		"Sync Threshold", "Bottlenecks Reported", "Pairs Tested",
		"Efficiency (B'necks/Pair)", fmt.Sprintf("Missed (of %d @ %.0f%%)", t.RefCount, t.RefThreshold*100),
	}
	var rows [][]string
	for _, r := range t.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", r.Threshold*100),
			fmt.Sprintf("%d", r.Reported),
			fmt.Sprintf("%d", r.Pairs),
			fmt.Sprintf("%.3f", r.Efficiency),
			fmt.Sprintf("%d", r.Missed),
		})
	}
	return fmt.Sprintf("Table 2: Bottlenecks found with varying %s threshold (%s)\n", t.Hypothesis, t.App) +
		TextTable(header, rows)
}
