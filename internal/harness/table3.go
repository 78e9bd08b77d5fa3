package harness

import (
	"fmt"
	"math"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/history"
)

// PoissonVersions are the paper's four application versions.
var PoissonVersions = []string{"A", "B", "C", "D"}

// versionOptions gives each version its own machine-node numbering and
// synthetic PIDs, so that directives never transfer across versions
// without resource mapping — the situation Section 3.2 addresses.
func versionOptions(version string) app.Options {
	switch version {
	case "A":
		return app.Options{NodeOffset: 1, PidBase: 4000}
	case "B":
		return app.Options{NodeOffset: 5, PidBase: 4100}
	case "C":
		return app.Options{NodeOffset: 9, PidBase: 4200}
	default: // D
		return app.Options{NodeOffset: 17, PidBase: 4300}
	}
}

// Table3Cell is one (target version, directive source) measurement.
type Table3Cell struct {
	Time    float64 // virtual time to find the target's full bottleneck set
	Reached bool
	// Mappings is how many inferred resource mappings were applied.
	Mappings int
}

// Table3Result is the cross-version directive study.
type Table3Result struct {
	// Cells[target][source]; source "None" is the base time.
	Cells map[string]map[string]Table3Cell
	// Sources in column order: None, A, B, C, D.
	Sources []string
}

// table3Harvest matches the paper's Section 4.3 methodology: priorities
// plus redundant/irrelevant-hierarchy and insignificant-code prunes from
// each individual prior run (no false-pair prunes, so renamed behaviour is
// never missed).
var table3Harvest = core.HarvestOptions{GeneralPrunes: true, HistoricPrunes: true, Priorities: true}

// Table3 reproduces the paper's Table 3: each version A-D is diagnosed
// with no directives and with directives extracted from a base run of
// each version, using inferred resource mappings to carry directives
// across the renamed modules, functions, machine nodes and process IDs.
// Every base record is saved to the Env's store, and each (target,
// source) harvest comes out of the memoizing cache — each source
// version is harvested once, not once per target.
func (e *Env) Table3(trials, workers int) (*Table3Result, error) {
	if trials < 1 {
		trials = 1
	}
	out := &Table3Result{
		Cells:   make(map[string]map[string]Table3Cell),
		Sources: append([]string{"None"}, PoissonVersions...),
	}
	// Phase 1 — base runs (the "None" column), one per version, all
	// independent. They also supply the harvested directives.
	baseJobs := make([]SessionJob, len(PoissonVersions))
	for i, v := range PoissonVersions {
		v := v
		cfg := DefaultSessionConfig()
		cfg.RunID = "t3-base-" + v
		baseJobs[i] = SessionJob{
			Build: func() (*app.App, error) { return app.Poisson(v, versionOptions(v)) },
			Cfg:   cfg,
		}
	}
	baseResults, err := RunSessions(baseJobs, workers)
	if err != nil {
		return nil, err
	}
	bases := make(map[string]*SessionResult, len(PoissonVersions))
	recs := make(map[string]*history.RunRecord, len(PoissonVersions))
	for i, v := range PoissonVersions {
		bases[v] = baseResults[i]
		rec, err := e.SaveResult(baseResults[i])
		if err != nil {
			return nil, err
		}
		recs[v] = rec
	}

	// Phase 2 — every (target, source, trial) directed diagnosis is
	// independent once the harvests exist: one flat job list.
	type cellKey struct{ target, source string }
	cellMaps := make(map[cellKey]int)
	var jobs []SessionJob
	var keys []cellKey
	for _, target := range PoissonVersions {
		target := target
		for _, source := range PoissonVersions {
			ds := e.Harvest(recs[source], table3Harvest)
			var maps []core.Mapping
			if source != target {
				maps = core.InferMappings(recs[source].Resources, recs[target].Resources)
			}
			cellMaps[cellKey{target, source}] = len(maps)
			for trial := 0; trial < trials; trial++ {
				cfg := DefaultSessionConfig()
				cfg.Sim.Seed = int64(trial + 1)
				cfg.RunID = fmt.Sprintf("t3-%s-from-%s-%d", target, source, trial)
				cfg.Directives = ds
				cfg.Mappings = maps
				jobs = append(jobs, SessionJob{
					Build: func() (*app.App, error) { return app.Poisson(target, versionOptions(target)) },
					Cfg:   cfg,
				})
				keys = append(keys, cellKey{target, source})
			}
		}
	}
	results, err := RunSessions(jobs, workers)
	if err != nil {
		return nil, err
	}

	for _, target := range PoissonVersions {
		out.Cells[target] = make(map[string]Table3Cell)
		want := bases[target].ImportantKeys(ImportantMargin)
		baseFound := bases[target].FoundTimes(want)
		bt, bok := TimeToFraction(baseFound, want, 1.0)
		out.Cells[target]["None"] = Table3Cell{Time: bt, Reached: bok}
	}
	byCell := make(map[cellKey][]*SessionResult)
	for i, res := range results {
		byCell[keys[i]] = append(byCell[keys[i]], res)
	}
	for _, target := range PoissonVersions {
		want := bases[target].ImportantKeys(ImportantMargin)
		for _, source := range PoissonVersions {
			k := cellKey{target, source}
			var times []float64
			reachedAll := true
			for _, res := range byCell[k] {
				ft := res.FoundTimes(want)
				if t, ok := TimeToFraction(ft, want, 1.0); ok {
					times = append(times, t)
				} else {
					reachedAll = false
				}
			}
			cell := Table3Cell{Mappings: cellMaps[k]}
			if reachedAll && len(times) == trials {
				cell.Time = median(times)
				cell.Reached = true
			} else {
				cell.Time = math.NaN()
			}
			out.Cells[target][source] = cell
		}
	}
	return out, nil
}

// Render formats the matrix like the paper's Table 3.
func (t *Table3Result) Render() string {
	header := append([]string{"Version \\ Directives"}, t.Sources...)
	var rows [][]string
	for _, target := range PoissonVersions {
		cells := []string{target}
		base := t.Cells[target]["None"]
		for _, src := range t.Sources {
			c := t.Cells[target][src]
			s := fmtTime(c.Time, c.Reached)
			if src != "None" && c.Reached && base.Reached {
				s += " " + fmtReduction(c.Time, base.Time, true)
			}
			cells = append(cells, s)
		}
		rows = append(rows, cells)
	}
	return "Table 3: Time (virtual s) to find all bottlenecks with search directives from different application versions\n" +
		TextTable(header, rows)
}
