package repro

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ingest"
	"repro/internal/postmortem"
	"repro/internal/sim"
)

// costTrials is how many times each op is counted. testing.AllocsPerRun
// reads the process's allocation counter, which goroutines other tests
// left running add to, so the least of the trials is the op's count.
const costTrials = 5

// costStream is the stream workload's feed loop in process, as
// internal/ingest's search-order test runs it: one archetype at
// simulator seed 11 for 20 virtual seconds, in 64-sample batches, to an
// engine with an evaluation budget of 24, directed by the harvest of the
// stream's own batch diagnosis and watching its known signature.
type costStream struct {
	name    string
	samples []ingest.Sample
	opts    ingest.EngineOptions
}

func newCostStream(t *testing.T, name string) *costStream {
	t.Helper()
	a, err := app.Build(name, "", app.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.NewSimulator(sim.Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rec := postmortem.NewRecorder()
	var samples []ingest.Sample
	s.AddObserver(costObserver(func(iv sim.Interval) {
		samples = append(samples, ingest.FromInterval(iv))
		rec.OnInterval(iv)
	}))
	if err := s.Run(20); err != nil {
		t.Fatal(err)
	}
	sp, procs, err := rec.InferExecution()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := postmortem.NewEvaluator(sp, procs, rec, 20)
	if err != nil {
		t.Fatal(err)
	}
	base, err := ev.BuildRecord(name, "", "r0", nil)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := app.KnownBottlenecks(name, app.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := ingest.EngineOptions{Directives: core.Harvest(base, core.HarvestAll()), EvalBudget: 24}
	for _, b := range sig {
		opts.Watch = append(opts.Watch, ingest.Watch{Hyp: b.Hyp, Path: b.Path})
	}
	return &costStream{name: name, samples: samples, opts: opts}
}

type costObserver func(sim.Interval)

func (f costObserver) OnInterval(iv sim.Interval) { f(iv) }

// feed ships the whole stream to a new engine.
func (c *costStream) feed(t *testing.T) *ingest.Engine {
	eng := ingest.NewEngine(c.name, "", "r1", c.opts)
	for i := 0; i < len(c.samples); i += 64 {
		if err := eng.Feed(c.samples[i:min(i+64, len(c.samples))]); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// costSession is one directed session of the diagnose workload: mw,
// steered by the directives harvested from its base run.
func costSession(t *testing.T) (*app.App, harness.SessionConfig) {
	t.Helper()
	a, err := app.Build("mw", "", app.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.DefaultSessionConfig()
	cfg.RunID = "base"
	base, err := harness.RunSession(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := core.Harvest(base.Record, core.HarvestOptions{GeneralPrunes: true, HistoricPrunes: true, Priorities: true})
	cfg = harness.DefaultSessionConfig()
	cfg.Directives, cfg.Guide = ds, ds.Compile()
	return a, cfg
}

// TestCostPinned holds the allocations of the diagnosis search's ops to
// testdata/cost.golden: a whole directed stream through Engine.Feed (mw
// and pipeline), Engine.Finalize of the mw stream, and one directed
// harness.RunSession. Allocation counts repeat exactly from run to run,
// unlike time, so a change that moves one shows as a diff here. After a
// deliberate change, copy the counts this test prints into the golden and
// say why in CHANGES.md.
func TestCostPinned(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's instrumentation allocates")
	}
	var got bytes.Buffer
	got.WriteString("# op  allocs/op (testing.AllocsPerRun)\n")
	count := func(op string, f func()) {
		least := testing.AllocsPerRun(1, f)
		for range costTrials - 1 {
			least = min(least, testing.AllocsPerRun(1, f))
		}
		fmt.Fprintf(&got, "%s %.0f\n", op, least)
	}
	var mw *ingest.Engine
	for _, name := range []string{"mw", "pipeline"} {
		c := newCostStream(t, name)
		count("engine.feed/"+name+"/directed", func() { c.feed(t) })
		if name == "mw" {
			mw = c.feed(t)
		}
	}
	count("engine.finalize/mw", func() {
		if _, _, err := mw.Finalize(20); err != nil {
			t.Fatal(err)
		}
	})
	a, cfg := costSession(t)
	count("harness.session/mw/directed", func() {
		if _, err := harness.RunSession(a, cfg); err != nil {
			t.Fatal(err)
		}
	})
	want, err := os.ReadFile(filepath.Join("testdata", "cost.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("allocation counts differ from testdata/cost.golden; this build counts:\n%s", got.String())
	}
}
