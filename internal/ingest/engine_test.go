package ingest_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/history"
	"repro/internal/ingest"
	"repro/internal/postmortem"
	"repro/internal/sim"
)

// collectSamples runs the named archetype for maxTime virtual seconds
// and returns its complete interval stream in wire form, in event order.
func collectSamples(t testing.TB, name string, seed int64, maxTime float64) []ingest.Sample {
	t.Helper()
	return collectVersion(t, name, "", seed, maxTime)
}

// collectVersion is collectSamples for one version of an application.
func collectVersion(t testing.TB, name, version string, seed int64, maxTime float64) []ingest.Sample {
	t.Helper()
	a, err := app.Build(name, version, app.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.NewSimulator(sim.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var out []ingest.Sample
	s.AddObserver(observerFunc(func(iv sim.Interval) {
		out = append(out, ingest.FromInterval(iv))
	}))
	if err := s.Run(maxTime); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatalf("%s produced no samples", name)
	}
	return out
}

// signatureWatch is the archetype's known bottleneck signature as the
// watch a stream registers.
func signatureWatch(t testing.TB, name string) []ingest.Watch {
	t.Helper()
	sig, err := app.KnownBottlenecks(name, app.Options{})
	if err != nil {
		t.Fatal(err)
	}
	watch := make([]ingest.Watch, len(sig))
	for i, b := range sig {
		watch[i] = ingest.Watch{Hyp: b.Hyp, Path: b.Path}
	}
	return watch
}

type observerFunc func(sim.Interval)

func (f observerFunc) OnInterval(iv sim.Interval) { f(iv) }

// batchDiagnose is the canonical offline path: every sample at once
// through the postmortem evaluator.
func batchDiagnose(t testing.TB, appName, runID string, samples []ingest.Sample, elapsed float64) *history.RunRecord {
	t.Helper()
	rec := postmortem.NewRecorder()
	for _, s := range samples {
		iv, err := s.Interval()
		if err != nil {
			t.Fatal(err)
		}
		rec.OnInterval(iv)
	}
	sp, procs, err := rec.InferExecution()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := postmortem.NewEvaluator(sp, procs, rec, elapsed)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ev.BuildRecord(appName, "", runID, nil)
	if err != nil {
		t.Fatal(err)
	}
	return full
}

func recordBytes(t *testing.T, rec *history.RunRecord) []byte {
	t.Helper()
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestIncrementalMatchesBatch is the equivalence property: feeding the
// same sample stream through the incremental engine — in any batching,
// with or without directives steering the live search — finalizes into
// a record byte-identical to diagnosing the whole run at once.
func TestIncrementalMatchesBatch(t *testing.T) {
	const elapsed = 20.0
	for _, appName := range []string{"mw", "pipeline"} {
		samples := collectSamples(t, appName, 11, elapsed)
		want := recordBytes(t, batchDiagnose(t, appName, "r0", samples, elapsed))

		// Harvest directives from the batch record so one variant streams
		// under live steering.
		ds := core.Harvest(batchDiagnose(t, appName, "r0", samples, elapsed), core.HarvestAll())

		for _, tc := range []struct {
			name  string
			batch int
			ds    *core.DirectiveSet
		}{
			{"one-by-one", 1, nil},
			{"batch7", 7, nil},
			{"whole", len(samples), nil},
			{"batch25-directed", 25, ds},
		} {
			eng := ingest.NewEngine(appName, "", "r0", ingest.EngineOptions{Directives: tc.ds})
			for i := 0; i < len(samples); i += tc.batch {
				end := i + tc.batch
				if end > len(samples) {
					end = len(samples)
				}
				if err := eng.Feed(samples[i:end]); err != nil {
					t.Fatalf("%s/%s: feed: %v", appName, tc.name, err)
				}
			}
			rec, _, err := eng.Finalize(elapsed)
			if err != nil {
				t.Fatalf("%s/%s: finalize: %v", appName, tc.name, err)
			}
			if got := recordBytes(t, rec); string(got) != string(want) {
				t.Errorf("%s/%s: finalized record differs from batch diagnosis", appName, tc.name)
			}
			if eng.Samples() != len(samples) {
				t.Errorf("%s/%s: samples = %d, want %d", appName, tc.name, eng.Samples(), len(samples))
			}
		}
	}
}

// TestEngineIncrementalProgress checks the live search actually runs
// while samples arrive: steps accrue, provisional conclusions appear,
// and a watched signature reports the step it concluded at.
func TestEngineIncrementalProgress(t *testing.T) {
	samples := collectSamples(t, "mw", 11, 20)
	watch := signatureWatch(t, "mw")
	eng := ingest.NewEngine("mw", "", "r0", ingest.EngineOptions{Watch: watch, EvalBudget: 24})
	for i := 0; i < len(samples); i += 100 {
		end := i + 100
		if end > len(samples) {
			end = len(samples)
		}
		if err := eng.Feed(samples[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Steps() == 0 {
		t.Error("no incremental evaluations ran")
	}
	if eng.TrueCount() == 0 {
		t.Error("no provisional conclusions")
	}
	if eng.WatchSteps() == 0 {
		t.Error("watched signature never concluded mid-stream")
	}
	if eng.WatchSteps() > eng.Steps() {
		t.Errorf("watch steps %d > total steps %d", eng.WatchSteps(), eng.Steps())
	}
}

// TestMalformedWatchNeverConcludes: a watch is met by a true pair one of
// whose selections is exactly the watched path. Each of these is a
// suffix of a real selection path of an mw stream ("/Machine/node",
// "/Code/mw.c"), and under a substring match reported a bogus
// steps-to-signature of 1, 1 and 5. The engine validates nothing (the
// manager's Start does); it must simply never find them.
func TestMalformedWatchNeverConcludes(t *testing.T) {
	samples := collectSamples(t, "mw", 11, 20)
	for _, path := range []string{"", "ode", "/mw.c"} {
		eng := ingest.NewEngine("mw", "", "r0", ingest.EngineOptions{EvalBudget: 24,
			Watch: []ingest.Watch{{Hyp: "CPUbound", Path: path}}})
		for i := 0; i < len(samples); i += 64 {
			if err := eng.Feed(samples[i:min(i+64, len(samples))]); err != nil {
				t.Fatal(err)
			}
		}
		if eng.TrueCount() == 0 {
			t.Fatal("the search never ran")
		}
		if eng.WatchSteps() != 0 {
			t.Errorf("watch on path %q concluded at step %d", path, eng.WatchSteps())
		}
	}
}

// TestEngineRejectsBadSamples covers the validation path. Every bad
// sample is sent twice: a label set is remembered only once the space
// admitted it, so a resend is rejected by the same check again.
func TestEngineRejectsBadSamples(t *testing.T) {
	eng := ingest.NewEngine("x", "", "r", ingest.EngineOptions{})
	for _, s := range []ingest.Sample{
		{Proc: "p:1", Node: "n01", Kind: "warp", Start: 0, End: 1},
		{Proc: "", Node: "n01", Kind: "cpu", Start: 0, End: 1},
		{Proc: "p:1", Node: "n01", Kind: "cpu", Start: 2, End: 1},
		{Proc: "p,1", Node: "n01", Kind: "cpu", Start: 0, End: 1},
		{Proc: "p:1", Node: "n01/", Kind: "cpu", Start: 0, End: 1},
		{Proc: "p:2", Node: "n02", Mod: "a,c", Fn: "f", Kind: "cpu", Start: 0, End: 1},
		{Proc: "p:2", Node: "n02", Mod: "a.c", Fn: "f//g", Kind: "cpu", Start: 0, End: 1},
		{Proc: "p:2", Node: "n02", Tag: "t,1", Kind: "sync_wait", Start: 0, End: 1},
	} {
		for _, send := range []string{"first send", "resend"} {
			if err := eng.Feed([]ingest.Sample{s}); err == nil {
				t.Errorf("%s of sample %+v accepted", send, s)
			}
		}
	}
	if eng.Samples() != 0 {
		t.Errorf("%d rejected samples were folded in", eng.Samples())
	}
	// A process hopping nodes is a corrupt stream, also when the hop is
	// back to a label set the engine already knows.
	ok := ingest.Sample{Proc: "q:1", Node: "n03", Kind: "cpu", Start: 0, End: 1}
	if err := eng.Feed([]ingest.Sample{ok, ok}); err != nil {
		t.Fatal(err)
	}
	hop := ok
	hop.Node = "n04"
	for _, send := range []string{"first send", "resend"} {
		if err := eng.Feed([]ingest.Sample{hop}); err == nil {
			t.Errorf("%s of a node hop accepted", send)
		}
	}
	if err := eng.Feed([]ingest.Sample{ok}); err != nil {
		t.Errorf("known label set rejected after a refused hop: %v", err)
	}
}

// TestHarvestReducesStepsToSignature is the online-value property from
// the paper: with harvesting on, a later stream of the same workload
// reaches the known bottleneck signature in measurably fewer refinement
// steps than the cold search did.
func TestHarvestReducesStepsToSignature(t *testing.T) {
	const elapsed = 20.0
	samples := collectSamples(t, "mw", 11, elapsed)
	watch := signatureWatch(t, "mw")

	env := harness.NewEnv(nil)
	mgr := ingest.NewManager(env, ingest.ManagerOptions{EvalBudget: 24})
	defer mgr.Close()

	run := func(runID string, harvest bool) *ingest.EndResponse {
		t.Helper()
		start, err := mgr.Start(&ingest.StartRequest{App: "mw", RunID: runID, Harvest: harvest, Watch: watch})
		if err != nil {
			t.Fatal(err)
		}
		if harvest && start.Directives == 0 {
			t.Fatalf("%s: harvesting found no directives", runID)
		}
		seq := 1
		for i := 0; i < len(samples); i += 100 {
			end := i + 100
			if end > len(samples) {
				end = len(samples)
			}
			req := &ingest.SamplesRequest{App: "mw", RunID: runID, Seq: seq, Samples: samples[i:end]}
			for {
				if _, err := mgr.Samples(req); err == nil {
					break
				} else if err == ingest.ErrStreamBusy {
					continue
				} else {
					t.Fatal(err)
				}
			}
			seq++
		}
		resp, err := mgr.End(&ingest.EndRequest{App: "mw", RunID: runID, Seq: seq, Elapsed: elapsed})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	cold := run("r1", false)
	warm := run("r2", true)
	if cold.WatchSteps == 0 || warm.WatchSteps == 0 {
		t.Fatalf("signature not reached: cold %d, warm %d", cold.WatchSteps, warm.WatchSteps)
	}
	if warm.WatchSteps >= cold.WatchSteps {
		t.Errorf("harvesting did not reduce steps to signature: cold %d, warm %d", cold.WatchSteps, warm.WatchSteps)
	}
	// Identical sample streams finalize identically, steered or not.
	recCold, err := env.Store().Load("mw", "", "r1")
	if err != nil {
		t.Fatal(err)
	}
	recWarm, err := env.Store().Load("mw", "", "r2")
	if err != nil {
		t.Fatal(err)
	}
	recWarm.RunID = recCold.RunID
	if string(recordBytes(t, recWarm)) != string(recordBytes(t, recCold)) {
		t.Error("steered stream finalized differently from cold stream")
	}
}

// saturatedBatch is one 64-sample batch in which every one of nprocs
// processes (one node, one function, one tag) spends a second 40 % on
// the CPU, 35 % waiting on the tag and 25 % in I/O — so every pair the
// search can reach concludes true and the frontier runs dry.
func saturatedBatch(nprocs int) []ingest.Sample {
	var out []ingest.Sample
	for i := 0; i < 16; i++ {
		p := fmt.Sprintf("p:%d", i%nprocs)
		for _, k := range []struct {
			kind       string
			start, end float64
		}{{"cpu", 0, 0.2}, {"cpu", 0.2, 0.4}, {"sync_wait", 0.4, 0.75}, {"io_wait", 0.75, 1}} {
			out = append(out, ingest.Sample{Proc: p, Node: "n0", Mod: "m.c", Fn: "f", Tag: "t",
				Kind: k.kind, Start: k.start, End: k.end})
		}
	}
	return out
}

// TestFeedCostDoesNotGrowWithTree: once the labels are known and the
// frontier is exhausted, a Feed allocates a handful of times — for the
// evaluator's snapshot — however many pairs have concluded true.
func TestFeedCostDoesNotGrowWithTree(t *testing.T) {
	const bound = 8
	trues := map[int]int{}
	for _, nprocs := range []int{2, 16} {
		batch := saturatedBatch(nprocs)
		eng := ingest.NewEngine("sat", "", "r", ingest.EngineOptions{EvalBudget: 4096})
		steps := -1
		for i := 0; eng.Steps() != steps; i++ {
			if i == 10 {
				t.Fatalf("%d processes: the frontier never ran dry", nprocs)
			}
			steps = eng.Steps()
			if err := eng.Feed(batch); err != nil {
				t.Fatal(err)
			}
		}
		if eng.TrueCount() != eng.Steps() {
			t.Fatalf("%d processes: %d of %d evaluated pairs true; the stream is meant to saturate", nprocs, eng.TrueCount(), eng.Steps())
		}
		trues[nprocs] = eng.TrueCount()
		n := testing.AllocsPerRun(20, func() {
			if err := eng.Feed(batch); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d processes, %d true pairs: %v allocations per Feed", nprocs, eng.TrueCount(), n)
		if n > bound {
			t.Errorf("%d processes, %d true pairs: Feed of a known batch allocates %v times, want at most %d", nprocs, eng.TrueCount(), n, bound)
		}
	}
	if trues[16] < 5*trues[2] {
		t.Errorf("true pairs %d and %d: the trees are too alike to show growth", trues[2], trues[16])
	}
}
