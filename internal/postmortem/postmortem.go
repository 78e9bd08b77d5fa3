// Package postmortem implements the paper's Section 6 extension: when no
// Search History Graph from a previous Performance Consultant run is
// available but raw monitoring data is — a trace gathered by any
// monitoring tool — the hypotheses can still be tested after the fact and
// search directives extracted from the results.
//
// A Recorder captures every activity interval of an execution; an
// Evaluator then computes the value of any (hypothesis : focus) pair over
// the whole run, using exactly the normalization the live probes use, and
// drives the Performance Consultant's own search (consultant.Search)
// offline to produce a history.RunRecord that the ordinary directive
// harvester (internal/core) accepts unchanged.
package postmortem

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/consultant"
	"repro/internal/dyninst"
	"repro/internal/history"
	"repro/internal/resource"
	"repro/internal/sim"
)

// aggKey collapses intervals into the combinations that matter for
// hypothesis evaluation; traces aggregate to a few hundred combinations
// regardless of run length.
type aggKey struct {
	sim.Labels
	kind sim.Kind
}

// interval returns an interval carrying the combination's labels (and no
// times or counts): what a matcher, resource discovery and usage
// attribution read.
func (k *aggKey) interval() sim.Interval {
	return sim.Interval{Labels: &k.Labels, Kind: k.kind}
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
	k := aggKey{*iv.Labels, iv.Kind}
	a := r.aggs[k]
	if a == nil {
		a = &agg{key: k}
		r.aggs[k] = a
	}
	r.add(a, &iv)
}

// Fold adds iv to its combination if the recorder holds that
// combination, and reports whether it did: a stream's engine, whose
// every combination was admitted when first seen, finds the aggregate of
// a sample with one lookup, and looks at its labels only on a miss.
func (r *Recorder) Fold(iv sim.Interval) bool {
	a := r.aggs[aggKey{*iv.Labels, iv.Kind}]
	if a != nil {
		r.add(a, &iv)
	}
	return a != nil
}

func (r *Recorder) add(a *agg, iv *sim.Interval) {
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

// sorted returns the recorder's combinations in their canonical total
// order. The slice is a snapshot; the *aggs are the live accumulators.
func (r *Recorder) sorted() []*agg {
	out := make([]*agg, 0, len(r.aggs))
	for _, a := range r.aggs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i].key, &out[j].key
		if a.Process != b.Process {
			return a.Process < b.Process
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Module != b.Module {
			return a.Module < b.Module
		}
		if a.Function != b.Function {
			return a.Function < b.Function
		}
		if a.Tag != b.Tag {
			return a.Tag < b.Tag
		}
		return a.kind < b.kind
	})
	return out
}

// Execution is where a trace ran, as far as its labels tell: the
// resource hierarchies they name and the process set.
type Execution struct {
	Space *resource.Space
	Procs []dyninst.ProcEntry     // sorted by name
	nodes map[string]string       // process → the node it reports from
	known map[sim.Labels]struct{} // the admitted label sets
}

// NewExecution returns the standard space with nothing discovered yet.
func NewExecution() *Execution {
	return &Execution{Space: resource.NewStandardSpace(), nodes: map[string]string{}, known: map[sim.Labels]struct{}{}}
}

// Discover adds the resources an interval's labels name, and refuses a
// process reported from two nodes. Only an admitted label set is
// remembered: a refused one is refused again, by the same check, every
// time it is seen — and since a process never changes node, a remembered
// set needs no second look.
func (x *Execution) Discover(iv *sim.Interval) error {
	ls := *iv.Labels
	if _, ok := x.known[ls]; ok {
		return nil
	}
	prev, seen := x.nodes[ls.Process]
	if seen && prev != ls.Node {
		return fmt.Errorf("postmortem: process %q observed on two nodes (%q, %q)", ls.Process, prev, ls.Node)
	}
	paths := []string{"/" + resource.HierProcess + "/" + ls.Process, "/" + resource.HierMachine + "/" + ls.Node}
	if ls.Module != "" && ls.Function != "" {
		paths = append(paths, "/"+resource.HierCode+"/"+ls.Module+"/"+ls.Function)
	}
	if ls.Tag != "" {
		paths = append(paths, "/"+resource.HierSyncObject+"/Message/"+ls.Tag)
	}
	for _, path := range paths {
		if _, err := x.Space.Add(path); err != nil {
			return err
		}
	}
	if !seen {
		x.nodes[ls.Process] = ls.Node
		i := sort.Search(len(x.Procs), func(i int) bool { return x.Procs[i].Name >= ls.Process })
		x.Procs = slices.Insert(x.Procs, i, dyninst.ProcEntry{Name: ls.Process, Node: ls.Node})
	}
	x.known[ls] = struct{}{}
	return nil
}

// InferExecution reconstructs the execution's resource hierarchies and
// process set from the trace itself, in the canonical order of its
// combinations, for traces gathered by external tools where no Paradyn
// resource discovery ran.
func (r *Recorder) InferExecution() (*resource.Space, []dyninst.ProcEntry, error) {
	if len(r.aggs) == 0 {
		return nil, nil, fmt.Errorf("postmortem: empty trace")
	}
	x := NewExecution()
	for _, a := range r.sorted() {
		iv := a.key.interval()
		if err := x.Discover(&iv); err != nil {
			return nil, nil, err
		}
	}
	return x.Space, x.Procs, nil
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

// Measure computes the value of a compiled (metric : focus) pair over
// the whole run, by the definition a live probe's value uses
// (dyninst.Matcher.Value): for time metrics, the fraction of the covered
// processes' execution time; for event metrics, events per second per
// covered process.
func (e *Evaluator) Measure(m *dyninst.Matcher) float64 {
	var secs float64
	var events int
	for _, a := range e.aggs {
		if iv := a.key.interval(); m.Matches(&iv) {
			secs += a.seconds
			events += m.Count(a.msgs, a.bytes, a.calls)
		}
	}
	return m.Value(secs, float64(events), e.elapsed, m.Width(e.procs))
}

// Evaluate runs the Performance Consultant's top-down search offline:
// starting from each top-level hypothesis at the whole-program focus,
// true pairs are refined one edge down each relevant hierarchy, false
// pairs are not. There are no cost limits and no timing — the whole
// trace is available — so the Search History Graph it returns is the
// complete diagnosis the online tool approximates.
func (e *Evaluator) Evaluate(hypRoot *consultant.Hypothesis, thresholds map[string]float64) (*consultant.SHG, error) {
	s, err := consultant.NewSearch(e.space, hypRoot, consultant.Guidance{Thresholds: thresholds}, consultant.BreadthFirst, 0)
	if err != nil {
		return nil, err
	}
	s.Seed(0)
	for queue := s.Pending(); len(queue) > 0; queue = s.Pending() {
		for _, n := range queue {
			if m, err := n.Matcher(); err != nil {
				s.Unmeasurable(n, 0) // focus too deep for the metric
			} else {
				s.Conclude(n, e.Measure(m), 0)
			}
		}
	}
	return s.SHG(), nil
}

// BuildRecord evaluates the trace and packages everything as a
// history.RunRecord, so that core.Harvest extracts directives from
// postmortem data exactly as it does from an online run.
func (e *Evaluator) BuildRecord(appName, version, runID string, thresholds map[string]float64) (*history.RunRecord, error) {
	shg, err := e.Evaluate(consultant.StandardHypotheses(), thresholds)
	if err != nil {
		return nil, err
	}
	procNodes := make(map[string]string, len(e.procs))
	for _, pe := range e.procs {
		procNodes[pe.Name] = pe.Node
	}
	// Per-resource usage fractions from the aggregated trace (the same
	// quantities history.UsageCollector derives online).
	usage := make(map[string]float64)
	denom := e.elapsed * float64(len(e.procs))
	for _, a := range e.aggs {
		iv := a.key.interval()
		for _, path := range history.UsagePaths(&iv) {
			usage[path] += a.seconds / denom
		}
	}
	rec := history.FromRun(appName, version, runID, e.space, shg, 0, usage, procNodes, e.elapsed)
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return rec, nil
}
