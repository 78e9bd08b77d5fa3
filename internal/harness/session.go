// Package harness runs complete diagnosis sessions (application +
// instrumentation + Performance Consultant) and regenerates every table
// and figure of the paper's evaluation section.
package harness

import (
	"fmt"
	"sort"

	"repro/internal/app"
	"repro/internal/consultant"
	"repro/internal/core"
	"repro/internal/dyninst"
	"repro/internal/history"
	"repro/internal/resource"
	"repro/internal/sim"
)

// SessionConfig configures one online diagnosis run.
type SessionConfig struct {
	Sim  sim.Config
	Inst dyninst.Config
	PC   consultant.Config
	// TickInterval is the PC's decision cadence in virtual seconds.
	TickInterval float64
	// MaxTime bounds the diagnosis in virtual seconds.
	MaxTime float64
	// Directives guide the search (nil = stock single-button PC).
	Directives *core.DirectiveSet
	// Guide, when set, is Directives already compiled (a cached set's,
	// HarvestCache.Guide): the session binds it to its space instead of
	// compiling Directives again. Mappings, which rewrite the set, make
	// the session compile the rewritten set instead.
	Guide *core.Guide
	// Mappings rewrite directive resource names into this run's namespace
	// before the directives are read into the consultant.
	Mappings []core.Mapping
	// Hypotheses overrides the hypothesis tree (nil = the standard
	// CPUbound / ExcessiveSyncWaitingTime / ExcessiveIOBlockingTime set).
	Hypotheses *consultant.Hypothesis
	// TimelineBinWidth, when positive, attaches a whole-run metric
	// timeline (Paradyn's time-histogram display data) with that bin
	// width to the result.
	TimelineBinWidth float64
	// RunID labels the saved record.
	RunID string
}

// DefaultSessionConfig returns the parameters used across the evaluation.
func DefaultSessionConfig() SessionConfig {
	return SessionConfig{
		Sim:          sim.DefaultConfig(),
		Inst:         dyninst.DefaultConfig(),
		PC:           consultant.DefaultConfig(),
		TickInterval: 0.5,
		MaxTime:      50_000,
		RunID:        "run1",
	}
}

// Bottleneck is one reported performance problem.
type Bottleneck struct {
	Hyp     string
	Focus   string
	Value   float64
	FoundAt float64
}

// SessionResult carries everything observed in one diagnosis run.
type SessionResult struct {
	App        *app.App
	Space      *resource.Space
	Consultant *consultant.Consultant
	Inst       *dyninst.Manager
	Record     *history.RunRecord

	// EndTime is the virtual time at which the search quiesced (or
	// MaxTime if it did not).
	EndTime float64
	// Quiesced reports whether the search finished before MaxTime.
	Quiesced bool
	// Bottlenecks are the true nodes ordered by report time.
	Bottlenecks []Bottleneck
	// PairsTested counts instrumented (hypothesis : focus) pairs.
	PairsTested int
	// SkippedDirectives counts directives naming unmapped resources.
	SkippedDirectives int
	// Timeline is the optional whole-run metric timeline (nil unless
	// TimelineBinWidth was set).
	Timeline *Timeline
}

// RunSession executes one full online diagnosis of the application.
func RunSession(a *app.App, cfg SessionConfig) (*SessionResult, error) {
	if cfg.TickInterval <= 0 {
		return nil, fmt.Errorf("harness: TickInterval must be positive")
	}
	if cfg.MaxTime <= 0 {
		return nil, fmt.Errorf("harness: MaxTime must be positive")
	}
	space, err := a.Space()
	if err != nil {
		return nil, err
	}
	simulator, err := a.NewSimulator(cfg.Sim)
	if err != nil {
		return nil, err
	}
	procs := make([]dyninst.ProcEntry, 0, a.NProcs())
	procNodes := make(map[string]string, a.NProcs())
	for _, ps := range a.Procs {
		procs = append(procs, dyninst.ProcEntry{Name: ps.Name, Node: ps.Node})
		procNodes[ps.Name] = ps.Node
	}
	inst, err := dyninst.NewManager(cfg.Inst, space, procs)
	if err != nil {
		return nil, err
	}
	usage := history.NewUsageCollector(a.NProcs())
	simulator.AddObserver(inst)
	simulator.AddObserver(usage)
	var timeline *Timeline
	if cfg.TimelineBinWidth > 0 {
		timeline, err = NewTimeline(cfg.TimelineBinWidth, a.NProcs())
		if err != nil {
			return nil, err
		}
		simulator.AddObserver(timeline)
	}
	simulator.SetSlowdown(inst.Slowdown)

	var guid consultant.Guidance
	skipped := 0
	if cfg.Directives != nil {
		guide := cfg.Guide
		if len(cfg.Mappings) > 0 {
			ds, err := core.ApplyMappings(cfg.Directives, cfg.Mappings)
			if err != nil {
				return nil, err
			}
			guide = ds.Compile()
		} else if guide == nil {
			guide = cfg.Directives.Compile()
		}
		guid, skipped = guide.Bind(space)
	}
	hypRoot := cfg.Hypotheses
	if hypRoot == nil {
		hypRoot = consultant.StandardHypotheses()
	}
	pc, err := consultant.New(cfg.PC, space, inst, hypRoot, guid)
	if err != nil {
		return nil, err
	}
	if err := simulator.Start(); err != nil {
		return nil, err
	}
	if err := pc.Start(0); err != nil {
		return nil, err
	}

	t := 0.0
	quiesced := false
	for t < cfg.MaxTime {
		t += cfg.TickInterval
		if err := simulator.RunUntil(t); err != nil {
			return nil, err
		}
		pc.Tick(t)
		if pc.Quiesced() {
			quiesced = true
			break
		}
		if simulator.Done() {
			// The application finished before the search did; remaining
			// pairs can never collect data.
			break
		}
		if simulator.Deadlocked() {
			return nil, fmt.Errorf("harness: application deadlocked at t=%.1f (blocked: %v)",
				simulator.Now(), simulator.BlockedProcesses())
		}
	}

	res := &SessionResult{
		App:               a,
		Space:             space,
		Consultant:        pc,
		Inst:              inst,
		EndTime:           t,
		Quiesced:          quiesced,
		PairsTested:       pc.TestedPairs(),
		SkippedDirectives: skipped,
		Timeline:          timeline,
	}
	for _, n := range pc.Bottlenecks() {
		res.Bottlenecks = append(res.Bottlenecks, Bottleneck{
			Hyp:     n.Hyp.Name,
			Focus:   n.Focus.Name(),
			Value:   n.Value,
			FoundAt: n.ConcludedAt,
		})
	}
	res.Record = history.FromRun(a.Name, a.Version, cfg.RunID, space, pc.SHG(), pc.TestedPairs(),
		usage.Fractions(t), procNodes, t)
	return res, nil
}

// BottleneckKeys returns the set of canonical (hypothesis : focus) keys of
// the run's bottlenecks. When the machine hierarchy is redundant
// (one process per node), machine-refined foci are folded onto their
// process equivalents so that runs which prune /Machine as redundant are
// compared fairly.
func (r *SessionResult) BottleneckKeys(canonical bool) map[string]bool {
	out := make(map[string]bool, len(r.Bottlenecks))
	for _, b := range r.Bottlenecks {
		k := b.Hyp + " " + b.Focus
		if canonical {
			k = b.Hyp + " " + CanonicalFocus(b.Focus, r.Record.ProcNodes)
		}
		out[k] = true
	}
	return out
}

// ImportantKeys returns the canonical keys of the run's clearly-true
// bottlenecks: those whose measured value exceeds the test threshold by at
// least the given margin (e.g. 0.2 = 20% above threshold). Borderline
// conclusions flip between runs as instrumentation perturbation shifts
// (the paper's own bottleneck sets differed in 2 of 115 nodes across
// runs); the important set is the stable target the evaluation times.
func (r *SessionResult) ImportantKeys(margin float64) map[string]bool {
	out := make(map[string]bool)
	for _, n := range r.Consultant.Bottlenecks() {
		if n.Threshold > 0 && n.Value < n.Threshold*(1+margin) {
			continue
		}
		k := n.Hyp.Name + " " + CanonicalFocus(n.Focus.Name(), r.Record.ProcNodes)
		out[k] = true
	}
	return out
}

// FoundTimes returns, for each canonical key in want, the virtual time the
// run reported it (missing keys are absent from the map).
func (r *SessionResult) FoundTimes(want map[string]bool) map[string]float64 {
	out := make(map[string]float64)
	for _, b := range r.Bottlenecks {
		k := b.Hyp + " " + CanonicalFocus(b.Focus, r.Record.ProcNodes)
		if !want[k] {
			continue
		}
		if t, ok := out[k]; !ok || b.FoundAt < t {
			out[k] = b.FoundAt
		}
	}
	return out
}

// TimeToFraction returns the virtual time by which the given fraction of
// the want set had been reported, or NaN (ok=false) if never reached.
func TimeToFraction(found map[string]float64, want map[string]bool, frac float64) (float64, bool) {
	if len(want) == 0 {
		return 0, false
	}
	times := make([]float64, 0, len(found))
	for _, t := range found {
		times = append(times, t)
	}
	sort.Float64s(times)
	need := int(frac*float64(len(want)) + 0.9999)
	if need < 1 {
		need = 1
	}
	if len(times) < need {
		return 0, false
	}
	return times[need-1], true
}
