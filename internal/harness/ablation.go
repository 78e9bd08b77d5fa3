package harness

import (
	"fmt"
	"strings"

	"repro/internal/app"
	"repro/internal/consultant"
)

// AblationRow is one parameter setting's effect on the base (undirected)
// diagnosis of Poisson C.
type AblationRow struct {
	Param       string
	Value       float64
	EndTime     float64 // virtual time to quiescence
	PairsTested int
	Bottlenecks int
	StallEvents int
	MaxCost     float64
}

// AblationResult sweeps the design parameters DESIGN.md calls out: the
// instrumentation cost limit (search throttling), the per-probe insertion
// latency, the conclusion test interval, and the extra cost of
// SyncObject-constrained probes.
type AblationResult struct {
	Rows []AblationRow
}

// Ablation runs the parameter sweeps. Every setting's session is
// independent: all of them fan out across workers in one batch. Every
// sweep setting's run record lands in the Env's store for later
// cross-run queries.
func (e *Env) Ablation(workers int) (*AblationResult, error) {
	type setting struct {
		param  string
		value  float64
		mutate func(*SessionConfig)
	}
	var settings []setting
	add := func(param string, value float64, mutate func(*SessionConfig)) {
		settings = append(settings, setting{param, value, mutate})
	}
	for _, v := range []float64{0.03, 0.06, 0.12, 0.24} {
		v := v
		add("cost-limit", v, func(c *SessionConfig) { c.PC.CostLimit = v })
	}
	for _, v := range []float64{0.0, 0.5, 2.0} {
		v := v
		add("insert-latency", v, func(c *SessionConfig) { c.Inst.InsertLatency = v })
	}
	for _, v := range []float64{2.0, 4.0, 8.0} {
		v := v
		add("test-interval", v, func(c *SessionConfig) { c.PC.TestInterval = v })
	}
	for _, v := range []float64{1.0, 3.0, 6.0} {
		v := v
		add("sync-cost-factor", v, func(c *SessionConfig) { c.Inst.SyncConstrainedCostFactor = v })
	}
	for _, v := range []float64{0, 1} { // 0 = breadth-first, 1 = depth-first
		v := v
		add("search-policy(0=bf,1=df)", v, func(c *SessionConfig) {
			c.PC.Policy = consultant.SearchPolicy(int(v))
		})
	}

	jobs := make([]SessionJob, len(settings))
	for i, s := range settings {
		cfg := DefaultSessionConfig()
		cfg.RunID = fmt.Sprintf("abl-%s-%g", s.param, s.value)
		s.mutate(&cfg)
		jobs[i] = SessionJob{
			Build: func() (*app.App, error) { return app.Poisson("C", app.Options{}) },
			Cfg:   cfg,
		}
	}
	results, err := RunSessions(jobs, workers)
	if err != nil {
		return nil, err
	}
	out := &AblationResult{}
	for i, res := range results {
		if _, err := e.SaveResult(res); err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, AblationRow{
			Param: settings[i].param, Value: settings[i].value,
			EndTime:     res.EndTime,
			PairsTested: res.PairsTested,
			Bottlenecks: len(res.Bottlenecks),
			StallEvents: res.Consultant.StallEvents(),
			MaxCost:     res.Inst.MaxCostSeen(),
		})
	}
	return out, nil
}

// Render formats the sweeps.
func (r *AblationResult) Render() string {
	header := []string{"Parameter", "Value", "Diagnosis vtime (s)", "Pairs", "Bottlenecks", "Cost Stalls", "Peak Cost"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Param,
			fmt.Sprintf("%g", row.Value),
			fmt.Sprintf("%.1f", row.EndTime),
			fmt.Sprintf("%d", row.PairsTested),
			fmt.Sprintf("%d", row.Bottlenecks),
			fmt.Sprintf("%d", row.StallEvents),
			fmt.Sprintf("%.3f", row.MaxCost),
		})
	}
	var b strings.Builder
	b.WriteString("Ablation: design-parameter sweeps on the undirected diagnosis of poisson-C\n")
	b.WriteString(TextTable(header, rows))
	return b.String()
}
