// Package postmortem implements the paper's Section 6 extension: when no
// Search History Graph from a previous Performance Consultant run is
// available but raw monitoring data is — a trace gathered by any
// monitoring tool — the hypotheses can still be tested after the fact and
// search directives extracted from the results.
//
// A Recorder captures every activity interval of an execution; an
// Evaluator then computes the value of any (hypothesis : focus) pair over
// the whole run, using exactly the normalization the live probes use, and
// replays the Performance Consultant's top-down refinement offline to
// produce a history.RunRecord that the ordinary directive harvester
// (internal/core) accepts unchanged.
package postmortem

import (
	"fmt"
	"sort"

	"repro/internal/consultant"
	"repro/internal/dyninst"
	"repro/internal/history"
	"repro/internal/metric"
	"repro/internal/resource"
	"repro/internal/sim"
)

// aggKey collapses intervals into the combinations that matter for
// hypothesis evaluation; traces aggregate to a few hundred combinations
// regardless of run length.
type aggKey struct {
	process, node    string
	module, function string
	tag              string
	kind             sim.Kind
}

// agg is what one attribution combination has accumulated.
type agg struct {
	key     aggKey
	seconds float64
	msgs    int
	bytes   int
	calls   int
}

// Recorder is a sim.Observer that aggregates a whole execution's activity
// by attribution.
type Recorder struct {
	aggs map[aggKey]*agg
	end  float64
}

// NewRecorder creates an empty trace recorder.
func NewRecorder() *Recorder {
	return &Recorder{aggs: make(map[aggKey]*agg)}
}

// OnInterval implements sim.Observer.
func (r *Recorder) OnInterval(iv sim.Interval) {
	k := aggKey{
		process: iv.Process, node: iv.Node,
		module: iv.Module, function: iv.Function,
		tag: iv.Tag, kind: iv.Kind,
	}
	a := r.aggs[k]
	if a == nil {
		a = &agg{key: k}
		r.aggs[k] = a
	}
	a.seconds += iv.Duration()
	a.msgs += iv.Msgs
	a.bytes += iv.Bytes
	a.calls += iv.Calls
	if iv.End > r.end {
		r.end = iv.End
	}
}

// End returns the last interval end observed.
func (r *Recorder) End() float64 { return r.end }

// Combinations returns the number of distinct attribution combinations.
func (r *Recorder) Combinations() int { return len(r.aggs) }

// sorted returns the recorder's combinations in their canonical total
// order. The slice is a snapshot; the *aggs are the live accumulators.
func (r *Recorder) sorted() []*agg {
	out := make([]*agg, 0, len(r.aggs))
	for _, a := range r.aggs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i].key, &out[j].key
		if a.process != b.process {
			return a.process < b.process
		}
		if a.node != b.node {
			return a.node < b.node
		}
		if a.module != b.module {
			return a.module < b.module
		}
		if a.function != b.function {
			return a.function < b.function
		}
		if a.tag != b.tag {
			return a.tag < b.tag
		}
		return a.kind < b.kind
	})
	return out
}

// InferExecution reconstructs the execution's resource hierarchies and
// process set from the trace itself, for traces gathered by external
// tools where no Paradyn resource discovery ran.
func (r *Recorder) InferExecution() (*resource.Space, []dyninst.ProcEntry, error) {
	if len(r.aggs) == 0 {
		return nil, nil, fmt.Errorf("postmortem: empty trace")
	}
	sp := resource.NewStandardSpace()
	procNodes := make(map[string]string)
	for _, a := range r.sorted() {
		k := &a.key
		if prev, ok := procNodes[k.process]; ok && prev != k.node {
			return nil, nil, fmt.Errorf("postmortem: process %q observed on two nodes (%q, %q)", k.process, prev, k.node)
		}
		procNodes[k.process] = k.node
		if _, err := sp.Add("/" + resource.HierProcess + "/" + k.process); err != nil {
			return nil, nil, err
		}
		if _, err := sp.Add("/" + resource.HierMachine + "/" + k.node); err != nil {
			return nil, nil, err
		}
		if k.module != "" && k.function != "" {
			if _, err := sp.Add("/" + resource.HierCode + "/" + k.module + "/" + k.function); err != nil {
				return nil, nil, err
			}
		}
		if k.tag != "" {
			if _, err := sp.Add("/" + resource.HierSyncObject + "/Message/" + k.tag); err != nil {
				return nil, nil, err
			}
		}
	}
	procs := make([]dyninst.ProcEntry, 0, len(procNodes))
	names := make([]string, 0, len(procNodes))
	for p := range procNodes {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, p := range names {
		procs = append(procs, dyninst.ProcEntry{Name: p, Node: procNodes[p]})
	}
	return sp, procs, nil
}

// Evaluator tests hypotheses over a recorded trace.
type Evaluator struct {
	space   *resource.Space
	procs   []dyninst.ProcEntry
	elapsed float64
	// aggs is the recorder's attribution set snapshotted in a total
	// order at construction. Every float accumulation (Value sums,
	// BuildRecord usage fractions) walks this slice instead of ranging
	// the map: float addition is not associative, so a fixed order is
	// what makes two evaluations of the same trace byte-identical.
	aggs []*agg
}

// NewEvaluator creates an evaluator for a trace of the given execution.
// elapsed is the run's wall length in virtual seconds (<= 0 means use the
// trace's last interval end).
func NewEvaluator(space *resource.Space, procs []dyninst.ProcEntry, rec *Recorder, elapsed float64) (*Evaluator, error) {
	if space == nil || rec == nil {
		return nil, fmt.Errorf("postmortem: nil space or recorder")
	}
	if len(procs) == 0 {
		return nil, fmt.Errorf("postmortem: no processes")
	}
	if elapsed <= 0 {
		elapsed = rec.end
	}
	if elapsed <= 0 {
		return nil, fmt.Errorf("postmortem: empty trace")
	}
	return &Evaluator{space: space, procs: procs, elapsed: elapsed, aggs: rec.sorted()}, nil
}

// Value computes the normalized metric value for a (metric : focus) pair
// over the whole run: for time metrics, the fraction of the covered
// processes' execution time; for event metrics, events per second per
// covered process.
func (e *Evaluator) Value(met metric.ID, focus resource.Focus) (float64, error) {
	m, err := dyninst.NewIntervalMatcher(met, focus)
	if err != nil {
		return 0, err
	}
	width := 0
	for _, pe := range e.procs {
		if m.MatchesProc(pe) {
			width++
		}
	}
	if width == 0 {
		return 0, nil
	}
	var secs float64
	var events int
	for _, a := range e.aggs {
		k := &a.key
		iv := sim.Interval{
			Process: k.process, Node: k.node,
			Module: k.module, Function: k.function,
			Tag: k.tag, Kind: k.kind,
			Start: 0, End: 1, // matcher ignores times
		}
		if !m.Matches(iv) {
			continue
		}
		secs += a.seconds
		switch met {
		case metric.MsgCount:
			events += a.msgs
		case metric.MsgBytes:
			events += a.bytes
		case metric.ProcCalls:
			events += a.calls
		}
	}
	info, _ := metric.Lookup(met)
	denom := e.elapsed * float64(width)
	if info.Normalized {
		return secs / denom, nil
	}
	return float64(events) / denom, nil
}

// Evaluate replays the Performance Consultant's top-down search offline:
// starting from each top-level hypothesis at the whole-program focus,
// true pairs are refined one edge down each relevant hierarchy, false
// pairs are not. There are no cost limits and no timing — the whole
// trace is available — so the result is the complete diagnosis the
// online tool approximates.
func (e *Evaluator) Evaluate(hypRoot *consultant.Hypothesis, thresholds map[string]float64) ([]history.NodeResult, error) {
	if hypRoot == nil || len(hypRoot.Children) == 0 {
		return nil, fmt.Errorf("postmortem: hypothesis root must have children")
	}
	type pair struct {
		hyp   *consultant.Hypothesis
		focus resource.Focus
	}
	var out []history.NodeResult
	seen := make(map[string]bool)
	var queue []pair
	for _, h := range hypRoot.Children {
		queue = append(queue, pair{hyp: h, focus: e.space.WholeProgram()})
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		key := consultant.NodeKey(p.hyp.Name, p.focus)
		if seen[key] {
			continue
		}
		seen[key] = true
		th, ok := thresholds[p.hyp.Name]
		if !ok {
			th = p.hyp.DefaultThreshold
		}
		v, err := e.Value(p.hyp.Metric, p.focus)
		if err != nil {
			// Unmeasurable pair (focus too deep): record as false.
			out = append(out, history.NodeResult{
				Hyp: p.hyp.Name, Focus: p.focus.Name(), State: "false",
				Threshold: th, Priority: consultant.Medium.String(),
			})
			continue
		}
		state := "false"
		if v > th {
			state = "true"
			for _, ch := range p.hyp.Children {
				queue = append(queue, pair{hyp: ch, focus: p.focus})
			}
			for _, hierName := range p.hyp.RelevantHierarchies {
				for _, f := range p.focus.Children(hierName) {
					queue = append(queue, pair{hyp: p.hyp, focus: f})
				}
			}
		}
		out = append(out, history.NodeResult{
			Hyp: p.hyp.Name, Focus: p.focus.Name(), State: state,
			Value: v, Threshold: th, Priority: consultant.Medium.String(),
		})
	}
	return out, nil
}

// BuildRecord evaluates the trace and packages everything as a
// history.RunRecord, so that core.Harvest extracts directives from
// postmortem data exactly as it does from an online run.
func (e *Evaluator) BuildRecord(appName, version, runID string, thresholds map[string]float64) (*history.RunRecord, error) {
	results, err := e.Evaluate(consultant.StandardHypotheses(), thresholds)
	if err != nil {
		return nil, err
	}
	rec := &history.RunRecord{
		App: appName, Version: version, RunID: runID,
		Duration:  e.elapsed,
		Resources: make(map[string][]string),
		ProcNodes: make(map[string]string, len(e.procs)),
		Usage:     make(map[string]float64),
		Results:   results,
	}
	for _, h := range e.space.Hierarchies() {
		rec.Resources[h.Name()] = h.Paths()
	}
	for _, pe := range e.procs {
		rec.ProcNodes[pe.Name] = pe.Node
	}
	// Per-resource usage fractions from the aggregated trace (the same
	// quantities history.UsageCollector derives online).
	denom := e.elapsed * float64(len(e.procs))
	for _, a := range e.aggs {
		k := &a.key
		frac := a.seconds / denom
		if k.module != "" {
			rec.Usage["/"+resource.HierCode+"/"+k.module] += frac
			if k.function != "" {
				rec.Usage["/"+resource.HierCode+"/"+k.module+"/"+k.function] += frac
			}
		}
		rec.Usage["/"+resource.HierProcess+"/"+k.process] += frac
		rec.Usage["/"+resource.HierMachine+"/"+k.node] += frac
		if k.tag != "" {
			rec.Usage["/"+resource.HierSyncObject+"/Message"] += frac
			rec.Usage["/"+resource.HierSyncObject+"/Message/"+k.tag] += frac
		}
	}
	for _, nr := range results {
		if nr.State == "true" {
			rec.TrueCount++
		}
	}
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return rec, nil
}
