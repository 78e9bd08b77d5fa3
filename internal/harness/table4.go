package harness

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/consultant"
	"repro/internal/core"
	"repro/internal/history"
)

// Table4Result counts the overlap of priority directives extracted from
// base runs of versions A, B and C, after mapping all three into version
// C's resource namespace.
type Table4Result struct {
	// Counts[level][region]: level is "High", "Low" or "Both"; region is
	// one of the seven subset labels plus "TOTAL".
	Counts map[string]map[string]int
}

// Table4Regions are the subset columns, in paper order.
var Table4Regions = []string{"A only", "B only", "C only", "A,B only", "A,C only", "B,C only", "A,B,C", "TOTAL"}

// Table4 reproduces the paper's Table 4: how similar the priority
// directives extracted from different code versions are. The three base
// runs are independent and fan out across workers. Priorities are
// extracted from the stored copies of the three base records, and the
// mapping into version C's namespace runs through the Env's cache.
func (e *Env) Table4(workers int) (*Table4Result, error) {
	sets := make(map[string]map[string]consultant.Priority) // version -> key -> level
	versions := []string{"A", "B", "C"}
	jobs := make([]SessionJob, len(versions))
	for i, v := range versions {
		v := v
		cfg := DefaultSessionConfig()
		cfg.RunID = "t4-base-" + v
		jobs[i] = SessionJob{
			Build: func() (*app.App, error) { return app.Poisson(v, versionOptions(v)) },
			Cfg:   cfg,
		}
	}
	results, err := RunSessions(jobs, workers)
	if err != nil {
		return nil, err
	}
	recs := make(map[string]*history.RunRecord)
	for i, v := range versions {
		rec, err := e.SaveResult(results[i])
		if err != nil {
			return nil, err
		}
		recs[v] = rec
	}
	for _, v := range []string{"A", "B", "C"} {
		ds := &core.DirectiveSet{Priorities: core.ExtractPriorities(recs[v])}
		if v != "C" {
			maps := core.InferMappings(recs[v].Resources, recs["C"].Resources)
			mapped, err := e.cache.Mapped(ds, maps)
			if err != nil {
				return nil, err
			}
			ds = mapped
		}
		m := make(map[string]consultant.Priority, len(ds.Priorities))
		for _, p := range ds.Priorities {
			m[p.Hypothesis+" "+p.Focus] = p.Level
		}
		sets[v] = m
	}

	out := &Table4Result{Counts: map[string]map[string]int{
		"High": zeroRegions(), "Low": zeroRegions(), "Both": zeroRegions(),
	}}
	count := func(level string, match func(consultant.Priority) bool) {
		keys := make(map[string]bool)
		for _, v := range []string{"A", "B", "C"} {
			for k, lv := range sets[v] {
				if match(lv) {
					keys[k] = true
				}
			}
		}
		for k := range keys {
			inA := match2(sets["A"], k, match)
			inB := match2(sets["B"], k, match)
			inC := match2(sets["C"], k, match)
			region := regionOf(inA, inB, inC)
			if region == "" {
				continue
			}
			out.Counts[level][region]++
			out.Counts[level]["TOTAL"]++
		}
	}
	count("High", func(p consultant.Priority) bool { return p == consultant.High })
	count("Low", func(p consultant.Priority) bool { return p == consultant.Low })
	count("Both", func(p consultant.Priority) bool { return p == consultant.High || p == consultant.Low })
	return out, nil
}

func zeroRegions() map[string]int {
	m := make(map[string]int, len(Table4Regions))
	for _, r := range Table4Regions {
		m[r] = 0
	}
	return m
}

func match2(set map[string]consultant.Priority, key string, match func(consultant.Priority) bool) bool {
	lv, ok := set[key]
	return ok && match(lv)
}

func regionOf(a, b, c bool) string {
	switch {
	case a && b && c:
		return "A,B,C"
	case a && b:
		return "A,B only"
	case a && c:
		return "A,C only"
	case b && c:
		return "B,C only"
	case a:
		return "A only"
	case b:
		return "B only"
	case c:
		return "C only"
	}
	return ""
}

// Render formats the counts like the paper's Table 4.
func (t *Table4Result) Render() string {
	header := append([]string{"Priority Setting"}, Table4Regions...)
	var rows [][]string
	for _, level := range []string{"High", "Low", "Both"} {
		cells := []string{level}
		for _, r := range Table4Regions {
			cells = append(cells, fmt.Sprintf("%d", t.Counts[level][r]))
		}
		rows = append(rows, cells)
	}
	return "Table 4: Similarity of extracted priorities across code versions (mapped into version C's namespace)\n" +
		TextTable(header, rows)
}
