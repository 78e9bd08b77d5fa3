package harness

import (
	"fmt"
	"strings"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/dyninst"
	"repro/internal/postmortem"
)

// PostmortemResult compares directed diagnosis using directives harvested
// from an online Performance Consultant run against directives harvested
// postmortem from a raw trace gathered with no Performance Consultant at
// all (the paper's Section 6 extension: "search directives extracted from
// results gathered with different monitoring tools").
type PostmortemResult struct {
	BaseTime float64 // undirected diagnosis, time to full set

	SHGDirectives  int
	SHGTime        float64
	SHGReached     bool
	PostDirectives int
	PostTime       float64
	PostReached    bool

	// TraceCombinations is the size of the aggregated raw trace.
	TraceCombinations int
	// AgreeHigh is the fraction of the postmortem harvest's High
	// directives that the SHG harvest also marks High.
	AgreeHigh float64
}

// TraceRun executes an application with only a passive trace recorder
// attached (no Performance Consultant, no instrumentation perturbation)
// and returns the postmortem record.
func TraceRun(a *app.App, duration float64, runID string) (*postmortem.Evaluator, error) {
	space, err := a.Space()
	if err != nil {
		return nil, err
	}
	s, err := a.NewSimulator(DefaultSessionConfig().Sim)
	if err != nil {
		return nil, err
	}
	rec := postmortem.NewRecorder()
	s.AddObserver(rec)
	if err := s.RunUntil(duration); err != nil {
		return nil, err
	}
	procs := make([]dyninst.ProcEntry, 0, a.NProcs())
	for _, ps := range a.Procs {
		procs = append(procs, dyninst.ProcEntry{Name: ps.Name, Node: ps.Node})
	}
	return postmortem.NewEvaluator(space, procs, rec, duration)
}

// PostmortemStudy runs the comparison on Poisson C. The two directed
// diagnoses (SHG-directed and trace-directed) are independent and run
// as one parallel batch. Both the online base record and the
// trace-derived postmortem record are saved to the Env's store, so
// trace evaluation feeds the same storage path the online Performance
// Consultant uses.
func (e *Env) PostmortemStudy(workers int) (*PostmortemResult, error) {
	out := &PostmortemResult{}

	// Online base run: defines the bottleneck set and the SHG harvest.
	a, err := app.Poisson("C", app.Options{})
	if err != nil {
		return nil, err
	}
	cfg := DefaultSessionConfig()
	cfg.RunID = "pm-base"
	base, err := RunSession(a, cfg)
	if err != nil {
		return nil, err
	}
	want := base.ImportantKeys(ImportantMargin)
	if t, ok := TimeToFraction(base.FoundTimes(want), want, 1.0); ok {
		out.BaseTime = t
	}
	harvest := core.HarvestOptions{GeneralPrunes: true, HistoricPrunes: true, Priorities: true}
	baseRec, err := e.SaveResult(base)
	if err != nil {
		return nil, err
	}
	shgDS := e.Harvest(baseRec, harvest)
	out.SHGDirectives = shgDS.Len()

	// Raw trace run (different monitoring tool, no PC) and its harvest.
	a2, err := app.Poisson("C", app.Options{})
	if err != nil {
		return nil, err
	}
	ev, err := TraceRun(a2, 120, "pm-trace")
	if err != nil {
		return nil, err
	}
	pmRec, err := ev.BuildRecord("poisson", "C", "pm-trace", nil)
	if err != nil {
		return nil, err
	}
	pmRec, err = e.saveRecord(pmRec)
	if err != nil {
		return nil, err
	}
	pmDS := e.Harvest(pmRec, harvest)
	out.PostDirectives = pmDS.Len()
	out.TraceCombinations = len(pmRec.Usage)

	// Agreement between the two harvests' High directives.
	shgHigh := make(map[string]bool)
	for _, p := range shgDS.Priorities {
		if p.Level.String() == "high" {
			shgHigh[p.Hypothesis+" "+p.Focus] = true
		}
	}
	pmHigh, agree := 0, 0
	for _, p := range pmDS.Priorities {
		if p.Level.String() == "high" {
			pmHigh++
			if shgHigh[p.Hypothesis+" "+p.Focus] {
				agree++
			}
		}
	}
	if pmHigh > 0 {
		out.AgreeHigh = float64(agree) / float64(pmHigh)
	}

	// Directed diagnoses with each directive source, run in parallel.
	directedJob := func(ds *core.DirectiveSet) SessionJob {
		cfg := DefaultSessionConfig()
		cfg.Sim.Seed = 2
		cfg.Directives = ds
		return SessionJob{
			Build: func() (*app.App, error) { return app.Poisson("C", app.Options{}) },
			Cfg:   cfg,
		}
	}
	results, err := RunSessions([]SessionJob{directedJob(shgDS), directedJob(pmDS)}, workers)
	if err != nil {
		return nil, err
	}
	out.SHGTime, out.SHGReached = TimeToFraction(results[0].FoundTimes(want), want, 1.0)
	out.PostTime, out.PostReached = TimeToFraction(results[1].FoundTimes(want), want, 1.0)
	return out, nil
}

// Render formats the study.
func (r *PostmortemResult) Render() string {
	var b strings.Builder
	b.WriteString("Section 6 extension: directives harvested postmortem from raw trace data\n")
	b.WriteString(strings.Repeat("-", 72) + "\n")
	fmt.Fprintf(&b, "undirected diagnosis:                 %.1fs to the full bottleneck set\n", r.BaseTime)
	fmt.Fprintf(&b, "directed by SHG harvest:              %s (%d directives)\n",
		fmtTime(r.SHGTime, r.SHGReached), r.SHGDirectives)
	fmt.Fprintf(&b, "directed by postmortem trace harvest: %s (%d directives, %d trace resources)\n",
		fmtTime(r.PostTime, r.PostReached), r.PostDirectives, r.TraceCombinations)
	fmt.Fprintf(&b, "postmortem High directives agreeing with the SHG harvest: %.0f%%\n", r.AgreeHigh*100)
	return b.String()
}
