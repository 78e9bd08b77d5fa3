package ingest

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/postmortem"
)

// refEngine drives an Engine's state with the advance of the commit
// before enumeration became conditional: the High pairs are re-seeded
// and every true pair re-expanded on every pass, whether or not the
// batch discovered a resource. It is the reference the engine's
// "only when the space grew" pass is held to.
type refEngine struct {
	*Engine
	minData float64
	guidAt  int
	seeded  bool
}

func newRefEngine(opts EngineOptions) *refEngine {
	e := NewEngine("late", "", "ref", opts)
	r := &refEngine{Engine: e, minData: e.opts.MinData, guidAt: -1}
	// With no amount of data enough, Engine.Feed folds the samples and
	// its own advance returns at the first check.
	e.opts.MinData = math.Inf(1)
	return r
}

func (r *refEngine) Feed(samples []Sample) error {
	if err := r.Engine.Feed(samples); err != nil {
		return err
	}
	return r.advance()
}

func (r *refEngine) advance() error {
	e := r.Engine
	if e.rec.End() < r.minData || len(e.procs) == 0 {
		return nil
	}
	if e.opts.Directives != nil {
		if sz := e.space.Size(); sz != r.guidAt {
			e.guid, _ = e.opts.Directives.Guidance(e.space)
			r.guidAt = sz
		}
	}
	if !r.seeded {
		r.seeded = true
		for _, h := range e.root.Children {
			e.enqueue(h, e.space.WholeProgram())
		}
	}
	e.seedHighPairs()
	for _, n := range e.trues {
		e.expand(n)
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

// searchState renders everything the live search has decided: the
// counters, and every pair ever enqueued with its sequence number,
// priority and state.
func searchState(e *Engine) string {
	keys := make([]string, 0, len(e.nodes))
	for k := range e.nodes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return e.nodes[keys[i]].seq < e.nodes[keys[j]].seq })
	var s strings.Builder
	fmt.Fprintf(&s, "steps %d true %d watch %d frontier %d\n", e.Steps(), e.TrueCount(), e.WatchSteps(), len(e.frontier))
	for _, k := range keys {
		n := e.nodes[k]
		fmt.Fprintf(&s, "%d %s %v %s\n", n.seq, k, n.prio, n.state)
	}
	return s.String()
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
			if n := e.nodes[parent]; n == nil || n.state != "true" {
				t.Fatalf("%s: parent %s not concluded true before the late joiners report", mode.name, parent)
			}
		}
		if _, ok := e.space.Find("/Process/a:2"); ok {
			t.Fatalf("%s: the late process is already known", mode.name)
		}
		feed(samples[early:])
		for _, child := range []string{
			"CPUbound </Code,/Machine,/Process/a:2,/SyncObject>",
			"CPUbound </Code/app.c/late_fn,/Machine,/Process,/SyncObject>",
			"ExcessiveSyncWaitingTime </Code,/Machine,/Process,/SyncObject/Message/t9>",
		} {
			if n := e.nodes[child]; n == nil || n.state != "true" {
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
		if got, want := searchState(eng), searchState(ref.Engine); got != want {
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
