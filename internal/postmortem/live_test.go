package postmortem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/app"
	"repro/internal/dyninst"
	"repro/internal/metric"
	"repro/internal/resource"
	"repro/internal/sim"
)

// randomFocus walks each hierarchy of sp down a random number of edges.
func randomFocus(sp *resource.Space, rng *rand.Rand) resource.Focus {
	f := sp.WholeProgram()
	for _, h := range sp.Hierarchies() {
		r := h.Root()
		for r.NumChildren() > 0 && rng.Intn(2) == 1 {
			kids := r.Children()
			r = kids[rng.Intn(len(kids))]
		}
		f = f.MustWithSelection(r)
	}
	return f
}

// TestQuickLiveValueEqualsTraceValue is the paper's Section 6
// equivalence: a pair tested after the fact from a trace reads what a
// live probe of it reads. One simulated run feeds a dyninst.Manager and
// a Recorder at once. On the whole program and random foci, every
// metric's probe, requested at 0 with no insertion latency, reads at the
// run's end what Evaluator.Measure reads over the trace by the same
// Matcher: exactly under an event metric, and to rounding under a time
// metric, whose seconds the probe sums by histogram bin and the trace by
// attribution combination.
func TestQuickLiveValueEqualsTraceValue(t *testing.T) {
	apps := [][2]string{{"mw", ""}, {"pipeline", ""}, {"poisson", "C"}}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		name := apps[rng.Intn(len(apps))]
		a, err := app.Build(name[0], name[1], app.Options{})
		if err != nil {
			t.Fatal(err)
		}
		space, err := a.Space()
		if err != nil {
			t.Fatal(err)
		}
		procs := make([]dyninst.ProcEntry, len(a.Procs))
		for i, ps := range a.Procs {
			procs[i] = dyninst.ProcEntry{Name: ps.Name, Node: ps.Node}
		}
		cfg := dyninst.DefaultConfig()
		cfg.InsertLatency = 0
		m, err := dyninst.NewManager(cfg, space, procs)
		if err != nil {
			t.Fatal(err)
		}
		type pair struct {
			mt    *dyninst.Matcher
			probe *dyninst.Probe
		}
		var pairs []pair
		foci := []resource.Focus{space.WholeProgram()}
		for range 4 {
			foci = append(foci, randomFocus(space, rng))
		}
		for _, f := range foci {
			for _, met := range metric.All {
				mt := new(dyninst.Matcher)
				if *mt, err = dyninst.Compile(met, f); err != nil {
					t.Fatalf("%s %s: %v", met, f.Name(), err)
				}
				pairs = append(pairs, pair{mt, m.Request(mt, 0)})
			}
		}
		scfg := sim.DefaultConfig()
		scfg.Seed = rng.Int63()
		s, err := a.NewSimulator(scfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := NewRecorder()
		s.AddObserver(m)
		s.AddObserver(rec)
		if err := s.Run(2 + 8*rng.Float64()); err != nil {
			t.Fatal(err)
		}
		end := rec.End()
		ev, err := NewEvaluator(space, procs, rec, end)
		if err != nil {
			t.Fatal(err)
		}
		nonzero := 0
		for _, p := range pairs {
			live, trace := p.probe.Value(end), ev.Measure(p.mt)
			if live != 0 {
				nonzero++
			}
			exact := p.mt.Count(1, 1, 1) != 0 // an event metric's counts are integers
			if live != trace && (exact || math.Abs(live-trace) > 1e-12*math.Abs(trace)) {
				t.Logf("seed %d, %s: live %v, trace %v", seed, a.FullName(), live, trace)
				return false
			}
		}
		// The whole program's execution time reads something, or the
		// run proves nothing.
		if nonzero == 0 {
			t.Logf("seed %d, %s: every value is 0 after %v s", seed, a.FullName(), end)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
