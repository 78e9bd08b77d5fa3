package harness

import (
	"fmt"
	"strings"

	"repro/internal/app"
	"repro/internal/core"
)

// ScaleRow is one machine size's result.
type ScaleRow struct {
	Procs        int
	BaseTime     float64 // undirected time to the full bottleneck set
	DirectedTime float64 // with same-run directives
	Reached      bool
	BasePairs    int
	DirPairs     int
}

// ScaleResult studies how the value of historical knowledge grows with
// machine size: the search space (and therefore the undirected diagnosis
// time) grows with the number of processes and nodes, while a directed
// search stays focused.
type ScaleResult struct {
	Rows []ScaleRow
}

// ScaleStudy runs the 2-D Poisson code across increasing partition
// sizes. Phase 1 diagnoses every size undirected in parallel; phase 2
// re-runs every size under the directives its own base run produced.
// Each size's base record is saved to the Env's store and its
// directives harvested from the stored copy.
func (e *Env) ScaleStudy(sizes []int, workers int) (*ScaleResult, error) {
	if len(sizes) == 0 {
		sizes = []int{4, 8, 16, 32}
	}
	baseJobs := make([]SessionJob, len(sizes))
	for i, n := range sizes {
		n := n
		cfg := DefaultSessionConfig()
		cfg.RunID = fmt.Sprintf("scale-%d-base", n)
		baseJobs[i] = SessionJob{
			Build: func() (*app.App, error) { return app.Poisson("C", app.Options{Procs: n}) },
			Cfg:   cfg,
		}
	}
	bases, err := RunSessions(baseJobs, workers)
	if err != nil {
		return nil, err
	}

	dirJobs := make([]SessionJob, len(sizes))
	for i, n := range sizes {
		n := n
		rec, err := e.SaveResult(bases[i])
		if err != nil {
			return nil, err
		}
		ds := e.Harvest(rec, core.HarvestOptions{GeneralPrunes: true, HistoricPrunes: true, Priorities: true})
		cfg := DefaultSessionConfig()
		cfg.Sim.Seed = 2
		cfg.RunID = fmt.Sprintf("scale-%d-dir", n)
		cfg.Directives = ds
		dirJobs[i] = SessionJob{
			Build: func() (*app.App, error) { return app.Poisson("C", app.Options{Procs: n}) },
			Cfg:   cfg,
		}
	}
	dirs, err := RunSessions(dirJobs, workers)
	if err != nil {
		return nil, err
	}

	out := &ScaleResult{}
	for i, n := range sizes {
		base, dir := bases[i], dirs[i]
		want := base.ImportantKeys(ImportantMargin)
		row := ScaleRow{Procs: n, BasePairs: base.PairsTested}
		if t, ok := TimeToFraction(base.FoundTimes(want), want, 1.0); ok {
			row.BaseTime = t
		}
		row.DirPairs = dir.PairsTested
		if t, ok := TimeToFraction(dir.FoundTimes(want), want, 1.0); ok {
			row.DirectedTime = t
			row.Reached = true
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render formats the study.
func (r *ScaleResult) Render() string {
	header := []string{"Processes", "Base vtime (s)", "Directed vtime (s)", "Reduction", "Base pairs", "Directed pairs"}
	var rows [][]string
	for _, row := range r.Rows {
		red := "-"
		dir := "-"
		if row.Reached {
			dir = fmt.Sprintf("%.1f", row.DirectedTime)
			red = fmt.Sprintf("%.1f%%", (row.BaseTime-row.DirectedTime)/row.BaseTime*100)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Procs),
			fmt.Sprintf("%.1f", row.BaseTime),
			dir, red,
			fmt.Sprintf("%d", row.BasePairs),
			fmt.Sprintf("%d", row.DirPairs),
		})
	}
	var b strings.Builder
	b.WriteString("Scale study: directed vs undirected diagnosis as the partition grows (poisson 2-D)\n")
	b.WriteString(TextTable(header, rows))
	return b.String()
}
