package ingest

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/consultant"
	"repro/internal/core"
	"repro/internal/dyninst"
	"repro/internal/postmortem"
	"repro/internal/resource"
)

// refEngine is the live search as it ran before enumeration became
// conditional, written as its own loop over a consultant.Search: the
// guidance is recompiled when the space grew, but the High pairs are
// re-seeded and every true pair re-refined on every pass, whether or not
// the batch discovered a resource, and the whole watch list is checked
// against every true pair each time one is added. It is the reference
// the engine's "only when the space grew" pass, and its "only the newly
// true pair, only the open watches" check, are held to.
type refEngine struct {
	opts   EngineOptions
	rec    *postmortem.Recorder
	exec   *postmortem.Execution
	search *consultant.Search
	guidAt int
	trues  []*consultant.Node

	steps, watchSteps int
}

func newRefEngine(opts EngineOptions) *refEngine {
	exec := postmortem.NewExecution()
	search, _ := consultant.NewSearch(exec.Space, consultant.StandardHypotheses(), consultant.Guidance{}, consultant.BreadthFirst, 0)
	return &refEngine{opts: opts, rec: postmortem.NewRecorder(), exec: exec, search: search, guidAt: -1}
}

func (r *refEngine) Feed(samples []Sample) error {
	for _, s := range samples {
		iv, err := s.Interval()
		if err != nil {
			return err
		}
		if err := r.exec.Discover(&iv); err != nil {
			return err
		}
		r.rec.OnInterval(iv)
	}
	now := r.rec.End()
	if now < minData || len(r.exec.Procs) == 0 {
		return nil
	}
	if sz := r.exec.Space.Size(); r.opts.Directives != nil && sz != r.guidAt {
		guid, _ := r.opts.Directives.Compile().Bind(r.exec.Space)
		r.search.Steer(guid)
		r.guidAt = sz
	}
	r.search.Seed(now)
	for _, n := range r.trues {
		r.search.Refine(n, now)
	}
	ev, err := postmortem.NewEvaluator(r.exec.Space, r.exec.Procs, r.rec, now)
	if err != nil {
		return err
	}
	budget := r.opts.EvalBudget
	for _, n := range r.search.Pending() {
		if budget == 0 {
			break
		}
		budget--
		r.steps++
		m, err := dyninst.Compile(n.Hyp.Metric, n.Focus)
		if err != nil {
			r.search.Unmeasurable(n, now)
			continue
		}
		v := ev.Measure(&m)
		if v > r.search.Threshold(n.Hyp) {
			r.search.Conclude(n, v, now)
			r.trues = append(r.trues, n)
			if r.watchSteps == 0 && r.watchSatisfied() {
				r.watchSteps = r.steps
			}
		}
	}
	return nil
}

func (r *refEngine) watchSatisfied() bool {
	for _, w := range r.opts.Watch {
		met := false
		for _, n := range r.trues {
			for _, h := range r.exec.Space.Hierarchies() {
				sel, _ := n.Focus.Selection(h.Name())
				met = met || n.Hyp.Name == w.Hyp && sel.Path() == w.Path
			}
		}
		if !met {
			return false
		}
	}
	return len(r.opts.Watch) > 0
}

// Two processes report from the start; at lateFrom a third process on
// its own node, a new function and a new message tag appear, all three
// heavy enough to conclude true, under parents (whole program, the
// module, /SyncObject/Message) that concluded true long before.
const (
	lateFrom = 4
	lateEnd  = 20
)

var lateWatch = []Watch{
	{Hyp: "CPUbound", Path: "/Process/a:2"},
	{Hyp: "CPUbound", Path: "/Code/app.c/late_fn"},
	{Hyp: "ExcessiveSyncWaitingTime", Path: "/SyncObject/Message/t9"},
}

func lateJoinerStream() []Sample {
	var out []Sample
	tick := func(t int, proc, node, fn, tag string, cpu float64) {
		s, mid := float64(t), float64(t)+cpu
		out = append(out,
			Sample{Proc: proc, Node: node, Mod: "app.c", Fn: fn, Kind: "cpu", Start: s, End: mid, Calls: 1},
			Sample{Proc: proc, Node: node, Mod: "app.c", Fn: "recv", Tag: tag, Kind: "sync_wait", Start: mid, End: s + 1, Msgs: 1, Bytes: 64})
	}
	for t := 0; t < lateEnd; t++ {
		if t < lateFrom {
			tick(t, "a:0", "n0", "work", "t1", 0.5)
			tick(t, "a:1", "n1", "work", "t1", 0.6)
			continue
		}
		tick(t, "a:0", "n0", "late_fn", "t9", 0.5)
		tick(t, "a:1", "n1", "late_fn", "t9", 0.5)
		tick(t, "a:2", "n2", "late_fn", "t9", 0.6)
	}
	return out
}

// lateDirectives is what a second stream of the same run would be
// steered by: everything harvested from its batch diagnosis.
func lateDirectives(t *testing.T, samples []Sample) *core.DirectiveSet {
	t.Helper()
	e := NewEngine("late", "", "hist", EngineOptions{})
	if err := e.Feed(samples); err != nil {
		t.Fatal(err)
	}
	rec, _, err := e.Finalize(lateEnd)
	if err != nil {
		t.Fatal(err)
	}
	ds := core.Harvest(rec, core.HarvestAll())
	if len(ds.Priorities) == 0 {
		t.Fatal("nothing harvested")
	}
	return ds
}

// searchState renders everything a live search has decided: the
// counters, the queue's length, and every pair the graph holds with its
// creation rank, priority and state.
func searchState(steps, trues, watchSteps int, s *consultant.Search) string {
	var b strings.Builder
	fmt.Fprintf(&b, "steps %d true %d watch %d queued %d\n", steps, trues, watchSteps, len(s.Pending()))
	for i, n := range s.SHG().Nodes() {
		fmt.Fprintf(&b, "%d %s %v %v\n", i, n.Key(), n.Priority, n.State)
	}
	return b.String()
}

// lookup finds the pair "hypothesis focus-name" in e's graph.
func lookup(t *testing.T, e *Engine, pair string) (*consultant.Node, bool) {
	t.Helper()
	hyp, name, _ := strings.Cut(pair, " ")
	f, err := resource.ParseFocus(e.exec.Space, name)
	if err != nil {
		t.Fatal(err)
	}
	return e.search.SHG().Lookup(hyp, f)
}

// TestLateJoinerRefined is the behaviour the per-batch re-expansion
// existed for: resources that first report after their parent pairs
// concluded true are still enqueued under them and evaluated.
func TestLateJoinerRefined(t *testing.T) {
	samples := lateJoinerStream()
	const batch = 8
	for _, mode := range []struct {
		name string
		ds   *core.DirectiveSet
	}{{"undirected", nil}, {"directed", lateDirectives(t, samples)}} {
		// A budget that covers the whole frontier: pairs that test false
		// stay pending and are re-tested first, so a small budget would
		// never reach the late joiners at the frontier's tail.
		e := NewEngine("late", "", "r1", EngineOptions{Directives: mode.ds, EvalBudget: 256, Watch: lateWatch})
		feed := func(part []Sample) {
			for i := 0; i < len(part); i += batch {
				if err := e.Feed(part[i:min(i+batch, len(part))]); err != nil {
					t.Fatal(err)
				}
			}
		}
		early := sort.Search(len(samples), func(i int) bool { return samples[i].Start >= lateFrom })
		feed(samples[:early])
		for _, parent := range []string{
			"CPUbound </Code,/Machine,/Process,/SyncObject>",
			"CPUbound </Code/app.c,/Machine,/Process,/SyncObject>",
			"ExcessiveSyncWaitingTime </Code,/Machine,/Process,/SyncObject/Message>",
		} {
			if n, ok := lookup(t, e, parent); !ok || n.State != consultant.StateTrue {
				t.Fatalf("%s: parent %s not concluded true before the late joiners report", mode.name, parent)
			}
		}
		if _, ok := e.exec.Space.Find("/Process/a:2"); ok {
			t.Fatalf("%s: the late process is already known", mode.name)
		}
		feed(samples[early:])
		for _, child := range []string{
			"CPUbound </Code,/Machine,/Process/a:2,/SyncObject>",
			"CPUbound </Code/app.c/late_fn,/Machine,/Process,/SyncObject>",
			"ExcessiveSyncWaitingTime </Code,/Machine,/Process,/SyncObject/Message/t9>",
		} {
			if n, ok := lookup(t, e, child); !ok || n.State != consultant.StateTrue {
				t.Errorf("%s: late joiner %s not refined to true (node %+v)", mode.name, child, n)
			}
		}
		if e.WatchSteps() == 0 {
			t.Errorf("%s: the watched late joiners never concluded", mode.name)
		}
	}
}

// agreesWithReference feeds the samples, batch at a time, to an engine
// and to the reference that re-enumerates on every pass, and requires
// the two to agree after every batch in everything the search decides.
func agreesWithReference(t *testing.T, samples []Sample, batch int, opts EngineOptions) bool {
	t.Helper()
	eng, ref := NewEngine("late", "", "ref", opts), newRefEngine(opts)
	for i := 0; i < len(samples); i += batch {
		b := samples[i:min(i+batch, len(samples))]
		if err := eng.Feed(b); err != nil {
			t.Fatal(err)
		}
		if err := ref.Feed(b); err != nil {
			t.Fatal(err)
		}
		got := searchState(eng.Steps(), eng.TrueCount(), eng.WatchSteps(), eng.search)
		if want := searchState(ref.steps, len(ref.trues), ref.watchSteps, ref.search); got != want {
			t.Errorf("batch %d, budget %d, directed %v: after sample %d the search is at\n%s\nthe reference at\n%s",
				batch, opts.EvalBudget, opts.Directives != nil, i+len(b), got, want)
			return false
		}
	}
	if eng.Steps() == 0 || eng.TrueCount() == 0 {
		t.Errorf("batch %d, budget %d: the search never ran", batch, opts.EvalBudget)
		return false
	}
	return true
}

// TestLateJoinerMatchesReexpandingReference shuffles the arrival order
// of the same samples, so that every resource is a late joiner of some
// order, under random batch sizes and budgets, directed and undirected.
func TestLateJoinerMatchesReexpandingReference(t *testing.T) {
	samples := lateJoinerStream()
	ds := lateDirectives(t, samples)
	for _, directed := range []*core.DirectiveSet{nil, ds} {
		if !agreesWithReference(t, samples, 8, EngineOptions{Directives: directed, EvalBudget: 24, Watch: lateWatch}) {
			t.Fatal("the stream in the order it was built differs from the reference")
		}
	}
	property := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		shuffled := make([]Sample, len(samples))
		for i, j := range rng.Perm(len(samples)) {
			shuffled[i] = samples[j]
		}
		opts := EngineOptions{EvalBudget: 1 + rng.Intn(24), Watch: lateWatch}
		if directed {
			opts.Directives = ds
		}
		return agreesWithReference(t, shuffled, 1+rng.Intn(16), opts)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
