package ingest

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/consultant"
	"repro/internal/core"
	"repro/internal/dyninst"
	"repro/internal/history"
	"repro/internal/postmortem"
	"repro/internal/resource"
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
	// MinData is how many virtual seconds of samples must have arrived
	// before the search draws any conclusion (<= 0 means 1).
	MinData float64
	// Watch registers the known bottleneck signature to report
	// steps-to-signature for.
	Watch []Watch
}

func (o EngineOptions) normalize() EngineOptions {
	if o.EvalBudget <= 0 {
		o.EvalBudget = 16
	}
	if o.MinData <= 0 {
		o.MinData = 1
	}
	return o
}

// pairNode is one (hypothesis : focus) pair of the incremental search.
type pairNode struct {
	hyp   *consultant.Hypothesis
	focus resource.Focus
	key   string
	prio  consultant.Priority
	seq   int
	state string // "pending", "true", "error"
}

// Engine is one run's incremental diagnosis session: a DynamicHS-style
// refinement search whose state persists across sample arrivals. Each
// Feed folds a batch of samples into the aggregated trace, grows the
// resource hierarchies with whatever the batch discovered, and advances
// the refinement frontier a bounded number of evaluations.
//
// What is kept across batches: the aggregate (rec), the space and the
// label sets already added to it (known), every pair ever enqueued
// (nodes) with the pending ones in the frontier and the true ones in
// trues, the compiled guidance, and the space size all of that was last
// enumerated against (grownAt). A batch that discovers no resource
// enumerates nothing: it pays for its samples and for at most EvalBudget
// evaluations. Only a batch that grew the space recompiles the guidance,
// re-seeds the High pairs and re-expands the true pairs.
//
// Mid-stream conclusions are provisional (drawn on partial data, under
// harvested thresholds). Finalize re-settles the complete aggregate
// through the exact batch evaluation path, so the stored record and
// bottleneck set are byte-identical to diagnosing the whole run at
// once, no matter how the samples were batched or which directives
// steered the live search.
//
// An Engine is not safe for concurrent use; the session manager
// serializes each stream onto its own engine.
type Engine struct {
	app, version, runID string
	opts                EngineOptions

	rec       *postmortem.Recorder
	space     *resource.Space
	known     map[labelSet]struct{} // label sets whose resources are in the space
	procNodes map[string]string
	procs     []dyninst.ProcEntry // sorted by name

	root *consultant.Hypothesis
	guid consultant.Guidance
	// grownAt is the space size at advance's last enumeration pass (-1
	// before the first): the guidance is compiled against, and every
	// true pair expanded over, a space of exactly this size.
	grownAt int

	nodes    map[string]*pairNode
	frontier []*pairNode // pending pairs, insertion order
	trues    []*pairNode // concluded true, conclusion order
	nextSeq  int
	highDone map[string]bool

	samples    int
	steps      int
	watchSteps int
}

// labelSet is the attribution of one sample: what addResources turns
// into resources.
type labelSet struct{ proc, node, mod, fn, tag string }

// NewEngine opens an incremental session for one run.
func NewEngine(app, version, runID string, opts EngineOptions) *Engine {
	return &Engine{
		app: app, version: version, runID: runID,
		opts:      opts.normalize(),
		rec:       postmortem.NewRecorder(),
		space:     resource.NewStandardSpace(),
		known:     map[labelSet]struct{}{},
		procNodes: map[string]string{},
		root:      consultant.StandardHypotheses(),
		nodes:     map[string]*pairNode{},
		highDone:  map[string]bool{},
		grownAt:   -1,
	}
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

// End returns the latest sample end time seen.
func (e *Engine) End() float64 { return e.rec.End() }

// Feed folds one batch of samples into the session and advances the
// incremental search.
func (e *Engine) Feed(samples []Sample) error {
	for _, s := range samples {
		iv, err := s.Interval()
		if err != nil {
			return err
		}
		prev, seen := e.procNodes[iv.Process]
		if seen && prev != iv.Node {
			return fmt.Errorf("ingest: process %q reported from two nodes (%q, %q)", iv.Process, prev, iv.Node)
		}
		ls := labelSet{iv.Process, iv.Node, iv.Module, iv.Function, iv.Tag}
		if _, ok := e.known[ls]; !ok {
			if !seen {
				e.procNodes[iv.Process] = iv.Node
				i := sort.Search(len(e.procs), func(i int) bool { return e.procs[i].Name >= iv.Process })
				e.procs = append(e.procs, dyninst.ProcEntry{})
				copy(e.procs[i+1:], e.procs[i:])
				e.procs[i] = dyninst.ProcEntry{Name: iv.Process, Node: iv.Node}
			}
			if err := e.addResources(ls); err != nil {
				return err
			}
			// Only an admitted set is remembered: a rejected one is
			// rejected again, by the same check, every time it is resent.
			e.known[ls] = struct{}{}
		}
		e.rec.OnInterval(iv)
		e.samples++
	}
	return e.advance()
}

func (e *Engine) addResources(ls labelSet) error {
	if _, err := e.space.Add("/" + resource.HierProcess + "/" + ls.proc); err != nil {
		return err
	}
	if _, err := e.space.Add("/" + resource.HierMachine + "/" + ls.node); err != nil {
		return err
	}
	if ls.mod != "" && ls.fn != "" {
		if _, err := e.space.Add("/" + resource.HierCode + "/" + ls.mod + "/" + ls.fn); err != nil {
			return err
		}
	}
	if ls.tag != "" {
		if _, err := e.space.Add("/" + resource.HierSyncObject + "/Message/" + ls.tag); err != nil {
			return err
		}
	}
	return nil
}

// advance runs up to EvalBudget frontier evaluations over the data so
// far: the incremental analogue of one consultant tick.
func (e *Engine) advance() error {
	if e.rec.End() < e.opts.MinData || len(e.procs) == 0 {
		return nil
	}
	// Enumeration depends only on the space, the guidance compiled
	// against it and the pairs already known, and a pair that turns true
	// is expanded at that moment — so a pass over a space that has not
	// grown since the last one would enqueue nothing, and is skipped.
	if sz := e.space.Size(); sz != e.grownAt {
		first := e.grownAt < 0
		e.grownAt = sz
		// Recompile the directives against the grown space, so High pairs
		// naming resources that were just discovered become seedable.
		if e.opts.Directives != nil {
			e.guid, _ = e.opts.Directives.Guidance(e.space)
		}
		if first {
			for _, h := range e.root.Children {
				e.enqueue(h, e.space.WholeProgram())
			}
		}
		e.seedHighPairs()
		// Late-discovered resources: already-true pairs re-enumerate
		// their children so a worker that first reported mid-run still
		// gets refined under an old conclusion.
		for _, n := range e.trues {
			e.expand(n)
		}
	}
	ev, err := postmortem.NewEvaluator(e.space, e.procs, e.rec, e.rec.End())
	if err != nil {
		return err
	}
	order := make([]*pairNode, len(e.frontier))
	copy(order, e.frontier)
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].prio != order[j].prio {
			return order[i].prio > order[j].prio
		}
		return order[i].seq < order[j].seq
	})
	budget := e.opts.EvalBudget
	for _, n := range order {
		if budget == 0 {
			break
		}
		if n.state != "pending" {
			continue
		}
		budget--
		e.steps++
		v, err := ev.Value(n.hyp.Metric, n.focus)
		if err != nil {
			// Structurally unmeasurable (focus too deep for the metric's
			// matcher); the batch path concludes these false, so drop
			// the pair rather than re-paying for it every tick.
			n.state = "error"
			continue
		}
		th, ok := e.guid.Thresholds[n.hyp.Name]
		if !ok {
			th = n.hyp.DefaultThreshold
		}
		if v > th {
			n.state = "true"
			e.trues = append(e.trues, n)
			e.expand(n)
			if e.watchSteps == 0 && e.watchSatisfied() {
				e.watchSteps = e.steps
			}
		}
	}
	e.compactFrontier()
	return nil
}

// seedHighPairs inserts every currently-resolvable High-priority pair
// into the frontier — the streaming form of "instrument immediately at
// search start".
func (e *Engine) seedHighPairs() {
	for _, hf := range e.guid.HighPairs {
		k := consultant.NodeKey(hf.Hyp, hf.Focus)
		if e.highDone[k] {
			continue
		}
		e.highDone[k] = true
		if h := e.root.Find(hf.Hyp); h != nil {
			e.enqueue(h, hf.Focus)
		}
	}
}

func (e *Engine) enqueue(h *consultant.Hypothesis, f resource.Focus) {
	key := consultant.NodeKey(h.Name, f)
	if _, ok := e.nodes[key]; ok {
		return
	}
	if e.guid.Prune != nil && e.guid.Prune(h.Name, f) {
		return
	}
	prio := consultant.Medium
	if e.guid.Priority != nil {
		prio = e.guid.Priority(h.Name, f)
	}
	n := &pairNode{hyp: h, focus: f, key: key, prio: prio, seq: e.nextSeq, state: "pending"}
	e.nextSeq++
	e.nodes[key] = n
	e.frontier = append(e.frontier, n)
}

func (e *Engine) expand(n *pairNode) {
	for _, ch := range n.hyp.Children {
		e.enqueue(ch, n.focus)
	}
	for _, hierName := range n.hyp.RelevantHierarchies {
		for _, f := range n.focus.Children(hierName) {
			e.enqueue(n.hyp, f)
		}
	}
}

func (e *Engine) compactFrontier() {
	keep := e.frontier[:0]
	for _, n := range e.frontier {
		if n.state == "pending" {
			keep = append(keep, n)
		}
	}
	e.frontier = keep
}

// focusHasPath reports whether a pair key — or the canonical focus name
// it ends in — constrains the given selection path exactly
// ("/Process/mw:1" does not match a focus at "/Process/mw:10").
func focusHasPath(key, path string) bool {
	return strings.Contains(key, path+",") || strings.Contains(key, path+">")
}

func (e *Engine) watchSatisfied() bool {
	if len(e.opts.Watch) == 0 {
		return false
	}
	for _, w := range e.opts.Watch {
		ok := false
		for _, n := range e.trues {
			if n.hyp.Name == w.Hyp && focusHasPath(n.key, w.Path) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Finalize settles the complete sample aggregate through the canonical
// batch evaluation path and packages it as a history.RunRecord. The
// incremental state steered how quickly conclusions appeared while the
// stream was live; the finalized record is recomputed from the full
// aggregate with stock thresholds, so it is byte-identical to a batch
// diagnosis of the same samples regardless of batching, directives or
// concurrent streams. elapsed <= 0 means the last sample's end time.
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
