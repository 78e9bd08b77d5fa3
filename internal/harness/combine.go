package harness

import (
	"fmt"
	"strings"

	"repro/internal/app"
	"repro/internal/core"
)

// CombineResult is the Section 4.3 detailed study: the a1→a2 repeated
// diagnosis of version A, and the A∩B versus A∪B directive combinations
// used to diagnose version C.
type CombineResult struct {
	// a1 → a2 repeated diagnosis.
	A1True, A2True int // bottlenecks found in each run
	A2FromA1       int // a2 bottlenecks that were High directives from a1
	A2New          int // a2 bottlenecks a1 never tested or concluded false
	A1Time, A2Time float64
	A2Mappings     int

	// A∩B vs A∪B diagnosing C.
	AndDirectives, OrDirectives int
	CommonDirectives            int
	AndTime, OrTime             float64
	AndReached, OrReached       bool
}

// CombineStudy reproduces the paper's Section 4.3 analyses. The three
// base diagnoses (a1, B, C) are independent and run as one parallel
// batch; the three directed diagnoses that depend on their harvests
// (a2, A∩B on C, A∪B on C) form a second batch. The a1, B and C base
// records are saved to the Env's store, and the harvest → map →
// intersect/union pipeline runs through the Env's cache — the A harvest
// is computed once and reused by both the a2 rerun and the combination.
func (e *Env) CombineStudy(workers int) (*CombineResult, error) {
	out := &CombineResult{}

	// --- Part 1: directives from a base run of A guiding a second run of
	// A executed on differently named nodes and with different PIDs, so
	// that every directive crosses a resource mapping. Both executions
	// are bounded (the program computes a fixed number of iterations), so
	// the undirected search is cut off by program end and the directed
	// rerun reaches conclusions the base run never could — the paper's
	// "more detailed diagnosis than could be performed without the
	// directives".
	const boundedIters = 400
	optA1 := app.Options{NodeOffset: 1, PidBase: 4000, Iterations: boundedIters}
	optA2 := app.Options{NodeOffset: 21, PidBase: 7000, Iterations: boundedIters}

	// Batch 1: the three undirected base diagnoses.
	a1Cfg := DefaultSessionConfig()
	a1Cfg.RunID = "a1"
	bCfg := DefaultSessionConfig()
	bCfg.RunID = "comb-B"
	cCfg := DefaultSessionConfig()
	cCfg.RunID = "comb-C"
	baseResults, err := RunSessions([]SessionJob{
		{Build: func() (*app.App, error) { return app.Poisson("A", optA1) }, Cfg: a1Cfg},
		{Build: func() (*app.App, error) { return app.Poisson("B", versionOptions("B")) }, Cfg: bCfg},
		{Build: func() (*app.App, error) { return app.Poisson("C", versionOptions("C")) }, Cfg: cCfg},
	}, workers)
	if err != nil {
		return nil, err
	}
	a1, bRes, cBase := baseResults[0], baseResults[1], baseResults[2]
	a1Rec, err := e.SaveResult(a1)
	if err != nil {
		return nil, err
	}
	bRec, err := e.SaveResult(bRes)
	if err != nil {
		return nil, err
	}
	cRec, err := e.SaveResult(cBase)
	if err != nil {
		return nil, err
	}
	out.A1True = len(a1.Bottlenecks)
	if t, ok := TimeToFraction(a1.FoundTimes(a1.BottleneckKeys(true)), a1.BottleneckKeys(true), 1.0); ok {
		out.A1Time = t
	}

	a2App, err := app.Poisson("A", optA2)
	if err != nil {
		return nil, err
	}
	a2Space, err := a2App.Space()
	if err != nil {
		return nil, err
	}
	a2Resources := make(map[string][]string)
	for _, h := range a2Space.Hierarchies() {
		a2Resources[h.Name()] = h.Paths()
	}
	maps := core.InferMappings(a1Rec.Resources, a2Resources)
	out.A2Mappings = len(maps)
	// Priorities plus general prunes only: a2's diagnosis should be a
	// more-detailed superset of a1's, so nothing a1 found is pruned away.
	ds := e.Harvest(a1Rec, core.HarvestOptions{GeneralPrunes: true, Priorities: true})
	a2Cfg := DefaultSessionConfig()
	a2Cfg.Sim.Seed = 2
	a2Cfg.RunID = "a2"
	a2Cfg.Directives = ds
	a2Cfg.Mappings = maps

	// Part 2 setup: combining directives from A and B to diagnose C.
	want := cBase.ImportantKeys(ImportantMargin)
	harvest := core.HarvestOptions{GeneralPrunes: true, HistoricPrunes: true, Priorities: true}
	dsA := e.Harvest(a1Rec, harvest)
	dsB := e.Harvest(bRec, harvest)
	mapsAC := core.InferMappings(a1Rec.Resources, cRec.Resources)
	mapsBC := core.InferMappings(bRec.Resources, cRec.Resources)
	dsAC, err := e.cache.Mapped(dsA, mapsAC)
	if err != nil {
		return nil, err
	}
	dsBC, err := e.cache.Mapped(dsB, mapsBC)
	if err != nil {
		return nil, err
	}
	and := e.cache.Combine(true, dsAC, dsBC)
	or := e.cache.Combine(false, dsAC, dsBC)
	out.AndDirectives = len(and.Priorities)
	out.OrDirectives = len(or.Priorities)
	andKeys := make(map[string]bool, len(and.Priorities))
	for _, p := range and.Priorities {
		andKeys[p.Hypothesis+" "+p.Focus+" "+p.Level.String()] = true
	}
	for _, p := range or.Priorities {
		if andKeys[p.Hypothesis+" "+p.Focus+" "+p.Level.String()] {
			out.CommonDirectives++
		}
	}

	// Batch 2: the three directed diagnoses, mutually independent.
	comboJob := func(ds *core.DirectiveSet) SessionJob {
		cfg := DefaultSessionConfig()
		cfg.Sim.Seed = 2
		cfg.RunID = "comb-run"
		cfg.Directives = ds
		return SessionJob{
			Build: func() (*app.App, error) { return app.Poisson("C", versionOptions("C")) },
			Cfg:   cfg,
		}
	}
	dirResults, err := RunSessions([]SessionJob{
		{App: a2App, Cfg: a2Cfg},
		comboJob(and),
		comboJob(or),
	}, workers)
	if err != nil {
		return nil, err
	}
	a2 := dirResults[0]
	out.A2True = len(a2.Bottlenecks)
	if t, ok := TimeToFraction(a2.FoundTimes(a2.BottleneckKeys(true)), a2.BottleneckKeys(true), 1.0); ok {
		out.A2Time = t
	}
	// Classify a2's bottlenecks against a1's results (in a2's namespace).
	mappedDS, err := e.cache.Mapped(ds, maps)
	if err != nil {
		return nil, err
	}
	high := make(map[string]bool)
	tested := make(map[string]bool)
	for _, p := range mappedDS.Priorities {
		tested[p.Hypothesis+" "+p.Focus] = true
		if p.Level.String() == "high" {
			high[p.Hypothesis+" "+p.Focus] = true
		}
	}
	for _, b := range a2.Bottlenecks {
		k := b.Hyp + " " + b.Focus
		switch {
		case high[k]:
			out.A2FromA1++
		case !tested[k]:
			out.A2New++
		}
	}
	for i, combo := range []struct {
		time    *float64
		reached *bool
	}{
		{&out.AndTime, &out.AndReached},
		{&out.OrTime, &out.OrReached},
	} {
		res := dirResults[1+i]
		if t, ok := TimeToFraction(res.FoundTimes(want), want, 1.0); ok {
			*combo.time = t
			*combo.reached = true
		}
	}
	return out, nil
}

// Render formats the study.
func (r *CombineResult) Render() string {
	var b strings.Builder
	b.WriteString("Section 4.3 detail: repeated diagnosis and directive combination\n")
	b.WriteString(strings.Repeat("-", 64) + "\n")
	fmt.Fprintf(&b, "a1 (version A, no directives):  %d bottlenecks, all found by t=%.1fs\n", r.A1True, r.A1Time)
	fmt.Fprintf(&b, "a2 (directives from a1, %d mappings applied): %d bottlenecks, all found by t=%.1fs\n",
		r.A2Mappings, r.A2True, r.A2Time)
	fmt.Fprintf(&b, "  of a2's bottlenecks: %d were High directives from a1, %d were pairs a1 never concluded\n",
		r.A2FromA1, r.A2New)
	b.WriteString("\nCombining directives from A and B to diagnose C:\n")
	fmt.Fprintf(&b, "  A∩B: %d priority directives;  A∪B: %d;  common to both: %d\n",
		r.AndDirectives, r.OrDirectives, r.CommonDirectives)
	fmt.Fprintf(&b, "  diagnosis time with A∩B: %s;  with A∪B: %s\n",
		fmtTime(r.AndTime, r.AndReached), fmtTime(r.OrTime, r.OrReached))
	return b.String()
}
