package ingest_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/ingest"
)

// The feed loop the stream workload of the benchmark runs, in-process:
// one archetype at simulator seed 11 for 20 virtual seconds, shipped in
// 64-sample batches to an engine with an evaluation budget of 24 and
// the archetype's known signature watched.
const (
	loopSeed    = 11
	loopMaxTime = 20.0
	loopBatch   = 64
	loopBudget  = 24
)

type feedLoop struct {
	app     string
	samples []ingest.Sample
	watch   []ingest.Watch
	// harvested is core.Harvest(…, HarvestAll()) of the batch diagnosis
	// of samples: what a second stream of the same run is steered by.
	harvested *core.DirectiveSet
}

func newFeedLoop(t testing.TB, appName string) *feedLoop {
	t.Helper()
	l := &feedLoop{app: appName, samples: collectSamples(t, appName, loopSeed, loopMaxTime), watch: signatureWatch(t, appName)}
	l.harvested = core.Harvest(batchDiagnose(t, appName, "r0", l.samples, loopMaxTime), core.HarvestAll())
	return l
}

func (l *feedLoop) engine(ds *core.DirectiveSet) *ingest.Engine {
	return ingest.NewEngine(l.app, "", "r1", l.options(ds))
}

func (l *feedLoop) options(ds *core.DirectiveSet) ingest.EngineOptions {
	return ingest.EngineOptions{Directives: ds, EvalBudget: loopBudget, Watch: l.watch}
}

// guidedEngine is engine(l.harvested) handed the set's compile, made
// once, as pcd hands a stream its cache's compile: only a stream's own
// work is timed.
func (l *feedLoop) guidedEngine(g *core.Guide) *ingest.Engine {
	return ingest.NewEngine(l.app, "", "r1", ingest.WithGuide(l.options(l.harvested), g))
}

// feed ships the whole stream to eng, calling after (when not nil)
// once each batch has been folded in.
func (l *feedLoop) feed(t testing.TB, eng *ingest.Engine, after func()) {
	t.Helper()
	for i := 0; i < len(l.samples); i += loopBatch {
		if err := eng.Feed(l.samples[i:min(i+loopBatch, len(l.samples))]); err != nil {
			t.Fatal(err)
		}
		if after != nil {
			after()
		}
	}
}

// TestEngineSearchOrderPinned holds the live search — not the finalized
// record, which Finalize recomputes from scratch — to a committed
// transcript: after every batch, the evaluations spent so far, the pairs
// provisionally true and the step the watched signature concluded at.
// Every other engine test compares finalized records, and the
// benchmark's gate compares step counts with an offline engine of the
// same build, so neither notices the search changing order.
func TestEngineSearchOrderPinned(t *testing.T) {
	var got bytes.Buffer
	for _, appName := range []string{"mw", "pipeline"} {
		l := newFeedLoop(t, appName)
		for _, mode := range []struct {
			name string
			ds   *core.DirectiveSet
		}{{"undirected", nil}, {"directed", l.harvested}} {
			fmt.Fprintf(&got, "# %s %s: steps true_count watch_steps per batch\n", appName, mode.name)
			eng := l.engine(mode.ds)
			l.feed(t, eng, func() {
				fmt.Fprintf(&got, "%d %d %d\n", eng.Steps(), eng.TrueCount(), eng.WatchSteps())
			})
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "search_order.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("live search differs from testdata/search_order.golden; this build produces:\n%s", got.String())
	}
}

// TestEngineKeepsHighPairsBound: the engine binds its directives once and
// keeps the High pairs that resolved, parsing only the rest as the space
// grows. After every batch of both feed loops, the pairs steering its
// search are those a fresh Guide.Bind of the space as it is then gives,
// in the same order.
func TestEngineKeepsHighPairsBound(t *testing.T) {
	for _, appName := range []string{"mw", "pipeline"} {
		l := newFeedLoop(t, appName)
		guide := l.harvested.Compile()
		eng := l.engine(l.harvested)
		batches, resolved := 0, 0
		l.feed(t, eng, func() {
			got, space, ok := ingest.HighPairs(eng)
			if !ok {
				return
			}
			batches++
			want, _ := guide.Bind(space)
			if len(got) != len(want.HighPairs) {
				t.Fatalf("%s, batch %d: %d High pairs kept, a fresh Bind gives %d", appName, batches, len(got), len(want.HighPairs))
			}
			for i, hf := range got {
				if w := want.HighPairs[i]; hf.Hyp != w.Hyp || !hf.Focus.Equal(w.Focus) {
					t.Fatalf("%s, batch %d: High pair %d is %s %s, a fresh Bind gives %s %s", appName, batches, i, hf.Hyp, hf.Focus.Name(), w.Hyp, w.Focus.Name())
				}
			}
			resolved = len(got)
		})
		if batches == 0 || resolved == 0 {
			t.Fatalf("%s: %d batches bound, %d High pairs at the end: the check held nothing", appName, batches, resolved)
		}
	}
}
