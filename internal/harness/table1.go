package harness

import (
	"fmt"
	"math"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/history"
)

// Table1Variant names one column of the paper's Table 1 and the harvest
// options that produce its directives.
type Table1Variant struct {
	Name    string
	Harvest *core.HarvestOptions // nil = no directives
}

// Table1Variants returns the paper's six search configurations. The
// "prunes only" variants include pruning of previously false pairs; the
// combined prunes+priorities variant deliberately omits them, exactly as
// the paper's final experiment does ("we included pruning of redundant and
// irrelevant hierarchies, but did not include prunes for previously false
// hypothesis/focus pairs").
func Table1Variants() []Table1Variant {
	return []Table1Variant{
		{Name: "No Directives", Harvest: nil},
		{Name: "All Prunes Only", Harvest: &core.HarvestOptions{GeneralPrunes: true, HistoricPrunes: true, FalsePairPrunes: true}},
		{Name: "General Prunes Only", Harvest: &core.HarvestOptions{GeneralPrunes: true}},
		{Name: "Historic Prunes Only", Harvest: &core.HarvestOptions{HistoricPrunes: true}},
		{Name: "Priorities Only", Harvest: &core.HarvestOptions{Priorities: true}},
		{Name: "Priorities & All Prunes", Harvest: &core.HarvestOptions{GeneralPrunes: true, HistoricPrunes: true, Priorities: true}},
	}
}

// Table1Row is the result of one variant.
type Table1Row struct {
	Variant string
	// Times[i] is the virtual time to find 25/50/75/100% of the base
	// run's bottleneck set; Reached[i] reports whether the fraction was
	// reached at all.
	Times   [4]float64
	Reached [4]bool
	// Found / Total is the coverage of the base bottleneck set.
	Found, Total int
	// PairsTested counts instrumented pairs (instrumentation volume).
	PairsTested int
}

// Table1Result is the full experiment.
type Table1Result struct {
	BaseRow Table1Row
	Rows    []Table1Row
}

// Fractions are the bottleneck-set fractions reported in Table 1.
var Fractions = [4]float64{0.25, 0.50, 0.75, 1.00}

// ImportantMargin is how far above its threshold a bottleneck's value must
// sit to join the timed reference set (see SessionResult.ImportantKeys).
const ImportantMargin = 0.5

// Table1Jobs builds the session jobs for every (variant, trial)
// combination, given the base run's record. Job i corresponds to
// variant i/trials, trial i%trials — the layout Table1 aggregates over,
// exposed so the scheduler benchmarks can run the exact Table 1
// workload. Harvests are memoized in the Env's cache.
func (e *Env) Table1Jobs(base *history.RunRecord, trials int) []SessionJob {
	variants := Table1Variants()
	jobs := make([]SessionJob, 0, len(variants)*trials)
	for _, v := range variants {
		var ds *core.DirectiveSet
		if v.Harvest != nil {
			ds = e.Harvest(base, *v.Harvest)
		}
		for trial := 0; trial < trials; trial++ {
			cfg := DefaultSessionConfig()
			cfg.Sim.Seed = int64(trial + 1)
			cfg.RunID = fmt.Sprintf("t1-%s-%d", v.Name, trial)
			cfg.Directives = ds
			jobs = append(jobs, SessionJob{
				Build: func() (*app.App, error) { return app.Poisson("C", app.Options{}) },
				Cfg:   cfg,
			})
		}
	}
	return jobs
}

// Table1 reproduces the paper's Table 1 on Poisson version C: a base
// run with no directives defines the bottleneck set, then each
// directive variant is timed on how quickly it finds that set.
// Identical search thresholds are used in all runs (no threshold
// directives). trials > 1 re-runs each variant with different simulator
// seeds and reports medians. The (variant, trial) sessions are
// independent and fan out across workers; the rendered table is
// identical for every worker count. The base record is saved to the
// Env's store and every variant harvests from the stored copy.
func (e *Env) Table1(trials, workers int) (*Table1Result, error) {
	if trials < 1 {
		trials = 1
	}
	baseApp, err := app.Poisson("C", app.Options{})
	if err != nil {
		return nil, err
	}
	baseCfg := DefaultSessionConfig()
	baseCfg.RunID = "t1-base"
	base, err := RunSession(baseApp, baseCfg)
	if err != nil {
		return nil, err
	}
	want := base.ImportantKeys(ImportantMargin)
	if len(want) == 0 {
		return nil, fmt.Errorf("harness: base run found no bottlenecks")
	}

	baseRec, err := e.SaveResult(base)
	if err != nil {
		return nil, err
	}
	results, err := RunSessions(e.Table1Jobs(baseRec, trials), workers)
	if err != nil {
		return nil, err
	}
	out := &Table1Result{}
	for vi, v := range Table1Variants() {
		row := table1Aggregate(v.Name, results[vi*trials:(vi+1)*trials], want)
		if v.Harvest == nil {
			out.BaseRow = *row
		}
		out.Rows = append(out.Rows, *row)
	}
	return out, nil
}

// table1Aggregate folds one variant's trial results into a table row.
func table1Aggregate(name string, trialResults []*SessionResult, want map[string]bool) *Table1Row {
	trials := len(trialResults)
	row := &Table1Row{Variant: name, Total: len(want)}
	times := make([][]float64, 4)
	var pairs, found []float64
	for _, res := range trialResults {
		ft := res.FoundTimes(want)
		for i, frac := range Fractions {
			if t, ok := TimeToFraction(ft, want, frac); ok {
				times[i] = append(times[i], t)
			}
		}
		pairs = append(pairs, float64(res.PairsTested))
		found = append(found, float64(len(ft)))
	}
	for i := range Fractions {
		// A fraction counts as reached only if every trial reached it.
		if len(times[i]) == trials {
			row.Times[i] = median(times[i])
			row.Reached[i] = true
		} else {
			row.Times[i] = math.NaN()
		}
	}
	row.PairsTested = int(median(pairs))
	row.Found = int(median(found))
	return row
}

// Render formats the experiment like the paper's Table 1.
func (t *Table1Result) Render() string {
	header := []string{"% B'necks Found"}
	for _, r := range t.Rows {
		header = append(header, r.Variant)
	}
	var rows [][]string
	labels := []string{"25%", "50%", "75%", "100%"}
	baseT := t.BaseRow.Times
	for i, lab := range labels {
		cells := []string{lab}
		for _, r := range t.Rows {
			c := fmtTime(r.Times[i], r.Reached[i])
			if r.Variant != "No Directives" && r.Reached[i] && t.BaseRow.Reached[i] {
				c += " " + fmtReduction(r.Times[i], baseT[i], true)
			}
			cells = append(cells, c)
		}
		rows = append(rows, cells)
	}
	extra := []string{"pairs tested"}
	for _, r := range t.Rows {
		extra = append(extra, fmt.Sprintf("%d", r.PairsTested))
	}
	rows = append(rows, extra)
	cov := []string{"set coverage"}
	for _, r := range t.Rows {
		cov = append(cov, fmt.Sprintf("%d/%d", r.Found, r.Total))
	}
	rows = append(rows, cov)
	return "Table 1: Time (virtual s) to find all true bottlenecks with search directives\n" +
		TextTable(header, rows)
}
