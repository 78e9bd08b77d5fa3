package ingest

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/consultant"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/postmortem"
	"repro/internal/sim"
)

// EngineOptions tune one incremental diagnosis session.
type EngineOptions struct {
	// Directives steer the incremental search: prunes cut subtrees
	// before they are ever tested, priorities reorder the frontier, and
	// threshold directives sharpen mid-stream conclusions. They affect
	// only how fast the search reaches conclusions while samples are
	// still arriving — never the finalized record, which is always
	// evaluated against stock thresholds so it is a pure function of
	// the sample stream.
	Directives *core.DirectiveSet
	// EvalBudget bounds pair evaluations per Feed call (<= 0 means 16):
	// the cost ceiling that stands in for the consultant's perturbation
	// limit on this wire-fed path.
	EvalBudget int
	// Watch registers the known bottleneck signature to report
	// steps-to-signature for.
	Watch []Watch

	// guide is Directives compiled, when the caller has it already (a
	// cached set's); NewEngine compiles Directives otherwise.
	guide *core.Guide
}

// minData is how many virtual seconds of samples must have arrived
// before the search draws any conclusion.
const minData = 1.0

// Engine is one run's incremental diagnosis session: a DynamicHS-style
// refinement search whose state persists across sample arrivals. Each
// Feed folds a batch of samples into the aggregated trace, grows the
// resource hierarchies with whatever the batch discovered, and advances
// the Performance Consultant's search (consultant.Search, the one the
// online tool and the batch evaluator drive) a bounded number of
// evaluations.
//
// What is kept across batches: the aggregate (rec), the execution
// discovered so far (exec), the search — its Search History Graph, each
// pair with its name and compiled matcher, its queue and the guidance
// bound for it — the true pairs in the order they concluded, and the
// space size all of that was last enumerated against (grownAt). A batch
// that discovers no resource enumerates nothing: it pays one aggregate
// lookup per sample and at most EvalBudget evaluations, each a walk of
// the aggregate. Only a batch that grew the space rebinds the guidance
// (compiled once, at NewEngine; a High pair bound once stays bound),
// re-seeds the High pairs and re-refines the true pairs, and that
// builds only the pairs the graph does not hold yet.
//
// Mid-stream conclusions are provisional (drawn on partial data, under
// harvested thresholds). Finalize re-settles the complete aggregate
// through the batch form of the same search, so the stored record and
// bottleneck set are byte-identical to diagnosing the whole run at
// once, no matter how the samples were batched or which directives
// steered the live search.
//
// An Engine is not safe for concurrent use; the session manager
// serializes each stream onto its own engine.
type Engine struct {
	app, version, runID string
	opts                EngineOptions

	rec    *postmortem.Recorder
	exec   *postmortem.Execution
	search *consultant.Search
	// bound is the directives bound to exec's growing space, and guid
	// the guidance it last gave, steering search.
	bound *core.Binding
	guid  consultant.Guidance
	// grownAt is the space size at advance's last enumeration pass (-1
	// before the first): the guidance is compiled against, and every
	// true pair refined over, a space of exactly this size.
	grownAt int
	trues   []*consultant.Node // concluded true, conclusion order
	open    []Watch            // watches no true pair has met yet

	samples    int
	steps      int
	watchSteps int

	// labels is what every fed sample's labels are converted into:
	// Discover and the Recorder copy what they keep of them.
	labels sim.Labels
}

// NewEngine opens an incremental session for one run.
func NewEngine(app, version, runID string, opts EngineOptions) *Engine {
	if opts.EvalBudget <= 0 {
		opts.EvalBudget = 16
	}
	if opts.guide == nil && opts.Directives != nil {
		opts.guide = opts.Directives.Compile()
	}
	exec := postmortem.NewExecution()
	// The standard tree has children, so the search cannot be refused.
	search, _ := consultant.NewSearch(exec.Space, consultant.StandardHypotheses(), consultant.Guidance{}, consultant.BreadthFirst, 0)
	e := &Engine{
		app: app, version: version, runID: runID,
		opts:    opts,
		rec:     postmortem.NewRecorder(),
		exec:    exec,
		search:  search,
		grownAt: -1,
		open:    slices.Clone(opts.Watch),
	}
	if opts.guide != nil {
		e.bound = opts.guide.NewBinding(exec.Space)
	}
	return e
}

// Steps returns the number of pair evaluations performed so far.
func (e *Engine) Steps() int { return e.steps }

// TrueCount returns the number of pairs provisionally concluded true.
func (e *Engine) TrueCount() int { return len(e.trues) }

// Samples returns the number of samples folded in so far.
func (e *Engine) Samples() int { return e.samples }

// WatchSteps returns the step count at which the watched signature had
// fully concluded true, or 0 if it has not (or nothing is watched).
func (e *Engine) WatchSteps() int { return e.watchSteps }

// Feed folds one batch of samples into the session and advances the
// incremental search.
func (e *Engine) Feed(samples []Sample) error {
	for _, s := range samples {
		iv, err := s.IntervalIn(&e.labels)
		if err != nil {
			return err
		}
		// A combination the recorder holds was admitted when first seen;
		// a label set Discover refuses never gets one, so it is refused
		// every time.
		if !e.rec.Fold(iv) {
			if err := e.exec.Discover(&iv); err != nil {
				return err
			}
			e.rec.OnInterval(iv)
		}
		e.samples++
	}
	return e.advance()
}

// advance concludes up to EvalBudget queued pairs over the data so far:
// the incremental analogue of one consultant tick.
func (e *Engine) advance() error {
	now := e.rec.End()
	if now < minData || len(e.exec.Procs) == 0 {
		return nil
	}
	// Enumeration depends only on the space, the guidance compiled
	// against it and the pairs the graph holds, and a pair that turns true
	// is refined at that moment — so a pass over a space that has not
	// grown since the last one would queue nothing, and is skipped.
	if sz := e.exec.Space.Size(); sz != e.grownAt {
		e.grownAt = sz
		// Rebind the directives to the grown space, so High pairs naming
		// resources that were just discovered become seedable; the pairs
		// bound before are kept.
		if e.bound != nil {
			e.guid, _ = e.bound.Guidance()
			e.search.Steer(e.guid)
		}
		e.search.Seed(now)
		// Late-discovered resources: already-true pairs re-enumerate
		// their children so a worker that first reported mid-run still
		// gets refined under an old conclusion.
		for _, n := range e.trues {
			e.search.Refine(n, now)
		}
	}
	ev, err := postmortem.NewEvaluator(e.exec.Space, e.exec.Procs, e.rec, now)
	if err != nil {
		return err
	}
	queue := e.search.Pending()
	for _, n := range queue[:min(len(queue), e.opts.EvalBudget)] {
		e.steps++
		m, err := n.Matcher()
		if err != nil {
			// Structurally unmeasurable (focus too deep for the metric's
			// matcher); the batch path concludes these false too, rather
			// than re-paying for the pair every tick.
			e.search.Unmeasurable(n, now)
			continue
		}
		v := ev.Measure(m)
		// A pair not true yet stays queued: more data may make it so.
		if v > e.search.Threshold(n.Hyp) {
			e.search.Conclude(n, v, now)
			e.trues = append(e.trues, n)
			e.closeWatches(n)
		}
	}
	return nil
}

// closeWatches strikes the open watches a newly true pair meets — its
// hypothesis, and one of its focus's selections exactly the watched path
// ("/Process/mw:1" is not met by a focus at "/Process/mw:10") — and
// records the step at which the last one closed.
func (e *Engine) closeWatches(n *consultant.Node) {
	if len(e.open) == 0 {
		return
	}
	e.open = slices.DeleteFunc(e.open, func(w Watch) bool {
		if w.Hyp != n.Hyp.Name {
			return false
		}
		for i := range e.exec.Space.NumHierarchies() {
			if n.Focus.SelectionAt(i).Path() == w.Path {
				return true
			}
		}
		return false
	})
	if len(e.open) == 0 {
		e.watchSteps = e.steps
	}
}

// Finalize settles the complete sample aggregate through the batch form
// of the search, over the canonical space, and packages it as a
// history.RunRecord. The incremental state steered how quickly
// conclusions appeared while the stream was live; the finalized record
// is recomputed from the full aggregate with stock thresholds, so it is
// byte-identical to a batch diagnosis of the same samples regardless of
// batching, directives or concurrent streams. elapsed <= 0 means the
// last sample's end time.
func (e *Engine) Finalize(elapsed float64) (*history.RunRecord, []string, error) {
	sp, procs, err := e.rec.InferExecution()
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: finalize %s: %w", e.runID, err)
	}
	ev, err := postmortem.NewEvaluator(sp, procs, e.rec, elapsed)
	if err != nil {
		return nil, nil, err
	}
	rec, err := ev.BuildRecord(e.app, e.version, e.runID, nil)
	if err != nil {
		return nil, nil, err
	}
	var bottlenecks []string
	for _, nr := range rec.Results {
		if nr.State == "true" {
			bottlenecks = append(bottlenecks, nr.Hyp+" "+nr.Focus)
		}
	}
	sort.Strings(bottlenecks)
	return rec, bottlenecks, nil
}
