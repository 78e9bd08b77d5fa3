package ingest

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
)

// fakeSamples returns n well-formed samples attributed to one process.
func fakeSamples(proc, node string, n int, at float64) []Sample {
	out := make([]Sample, n)
	for i := range out {
		out[i] = Sample{
			Proc: proc, Node: node, Mod: "m.c", Fn: "work",
			Kind: "cpu", Start: at + float64(i)*0.01, End: at + float64(i)*0.01 + 0.01,
		}
	}
	return out
}

func startStream(t *testing.T, m *Manager, runID string) {
	t.Helper()
	if _, err := m.Start(&StartRequest{App: "x", RunID: runID}); err != nil {
		t.Fatal(err)
	}
}

// TestManagerSeqProtocol covers the batch sequencing contract: dups are
// acknowledged without effect, gaps are rejected, the end marker must
// sit one past the last batch, and a finalized stream answers End
// resends from the memo.
func TestManagerSeqProtocol(t *testing.T) {
	env := harness.NewEnv(nil)
	m := NewManager(env, ManagerOptions{})
	defer m.Close()
	startStream(t, m, "r1")

	send := func(seq int, at float64) (*SamplesResponse, error) {
		return m.Samples(&SamplesRequest{App: "x", RunID: "r1", Seq: seq, Samples: fakeSamples("x:1", "n01", 4, at)})
	}
	if _, err := send(1, 0); err != nil {
		t.Fatal(err)
	}
	// Gap: batch 3 before batch 2.
	if _, err := send(3, 1); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("gap err = %v", err)
	}
	// Duplicate resend of an applied seq is a no-op ack.
	if resp, err := send(1, 0); err != nil || resp.Accepted != 0 {
		t.Fatalf("dup resend: %v %+v", err, resp)
	}
	if _, err := send(2, 1); err != nil {
		t.Fatal(err)
	}
	// End marker at the wrong seq proves a lost batch.
	if _, err := m.End(&EndRequest{App: "x", RunID: "r1", Seq: 2}); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("end gap err = %v", err)
	}
	resp, err := m.End(&EndRequest{App: "x", RunID: "r1", Seq: 3, Elapsed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Saved == "" || resp.Samples != 8 {
		t.Fatalf("end resp = %+v", resp)
	}
	if _, err := env.Store().Load("x", "", "r1"); err != nil {
		t.Fatalf("finalized run not stored: %v", err)
	}
	// End resend finds the memoized result; samples find no stream.
	again, err := m.End(&EndRequest{App: "x", RunID: "r1", Seq: 3, Elapsed: 2})
	if err != nil || again.Saved != resp.Saved {
		t.Fatalf("end resend: %v %+v", err, again)
	}
	if _, err := send(3, 2); !errors.Is(err, ErrNoStream) {
		t.Fatalf("samples after end err = %v", err)
	}
	st := m.Snapshot()
	if st.DupBatches != 1 || st.OutOfOrder != 2 || st.Finalized != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestReporterLocalSenderWaitsForRoom: the in-process sender waits out
// a full stream queue — the batch lands once the worker drains — and
// gives up with its context's error when the context ends first.
func TestReporterLocalSenderWaitsForRoom(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	m := NewManager(harness.NewEnv(nil), ManagerOptions{
		QueueDepth: 1,
		feedHook:   func() { once.Do(func() { <-gate }) },
	})
	defer m.Close()
	startStream(t, m, "r1")
	snd := LocalSender{M: m}
	send := func(ctx context.Context, seq int) error {
		_, err := snd.IngestSamples(ctx, &SamplesRequest{App: "x", RunID: "r1", Seq: seq, Samples: fakeSamples("x:1", "n01", 2, float64(seq))})
		return err
	}
	// Batch 1 parks the worker in the hook; batch 2 fills the queue.
	for seq := 1; seq <= 2; seq++ {
		if err := send(context.Background(), seq); err != nil {
			t.Fatalf("batch %d: %v", seq, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := send(ctx, 3); err == nil || err != ctx.Err() {
		t.Fatalf("send into a full queue past its deadline = %v, want %v", err, ctx.Err())
	}
	done := make(chan error, 1)
	go func() { done <- send(context.Background(), 3) }()
	select {
	case err := <-done:
		t.Fatalf("send into a full queue returned %v before the worker drained", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("send after the worker drained: %v", err)
	}
	if st := m.Snapshot(); st.RejectedFull == 0 || st.Batches != 3 {
		t.Errorf("stats = %+v, want refusals waited out and three batches", st)
	}
	if resp, err := m.End(&EndRequest{App: "x", RunID: "r1", Seq: 4, Elapsed: 4}); err != nil || resp.Samples != 6 {
		t.Fatalf("end: %v %+v", err, resp)
	}
}

// TestManagerBackpressure fills a depth-1 queue while the worker is
// held, and checks the overflow batch is refused with ErrStreamBusy —
// then accepted once the worker drains.
func TestManagerBackpressure(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	env := harness.NewEnv(nil)
	m := NewManager(env, ManagerOptions{
		QueueDepth: 1,
		feedHook:   func() { once.Do(func() { <-gate }) },
	})
	defer m.Close()
	startStream(t, m, "r1")

	send := func(seq int) error {
		_, err := m.Samples(&SamplesRequest{App: "x", RunID: "r1", Seq: seq, Samples: fakeSamples("x:1", "n01", 2, float64(seq))})
		return err
	}
	// Batch 1 is picked up by the worker and parks in the hook; batch 2
	// fills the queue; batch 3 must bounce.
	if err := send(1); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for {
		if err := send(2); err == nil {
			break
		}
		select {
		case <-deadline:
			t.Fatal("batch 2 never queued")
		case <-time.After(time.Millisecond):
		}
	}
	before := m.Snapshot().RejectedFull
	if err := send(3); !errors.Is(err, ErrStreamBusy) {
		t.Fatalf("overflow err = %v", err)
	}
	if got := m.Snapshot().RejectedFull; got != before+1 {
		t.Errorf("rejected_full = %d, want %d", got, before+1)
	}
	close(gate)
	// Backpressure is transient: the same batch lands after a drain.
	for {
		err := send(3)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrStreamBusy) {
			t.Fatal(err)
		}
		select {
		case <-deadline:
			t.Fatal("batch 3 never accepted")
		case <-time.After(time.Millisecond):
		}
	}
	if resp, err := m.End(&EndRequest{App: "x", RunID: "r1", Seq: 4, Elapsed: 4}); err != nil || resp.Samples != 6 {
		t.Fatalf("end: %v %+v", err, resp)
	}
}

// TestManagerStartGuards covers the stream-identity rules.
func TestManagerStartGuards(t *testing.T) {
	env := harness.NewEnv(nil)
	m := NewManager(env, ManagerOptions{MaxStreams: 2})
	defer m.Close()

	if _, err := m.Start(&StartRequest{App: "x"}); err == nil {
		t.Error("start without run_id accepted")
	}
	// A watch that names no possible pair is refused before a stream
	// exists: the first three are suffixes of real selection paths, which
	// the engine once matched by substring.
	for _, w := range []Watch{
		{Hyp: "CPUbound", Path: ""}, {Hyp: "CPUbound", Path: "ode"}, {Hyp: "CPUbound", Path: "/mw.c"},
		{Hyp: "CPUbound", Path: "/Process//mw:1"}, {Hyp: "CPUbound", Path: "/Process/a,b"},
		{Hyp: "Slow", Path: "/Process/mw:1"},
	} {
		if _, err := m.Start(&StartRequest{App: "x", RunID: "r1", Watch: []Watch{{Hyp: "CPUbound", Path: "/Process/mw:1"}, w}}); err == nil {
			t.Errorf("start with watch %+v accepted", w)
		}
	}
	if m.Snapshot().Started != 0 {
		t.Error("a refused start opened a stream")
	}
	startStream(t, m, "r1")
	if _, err := m.Start(&StartRequest{App: "x", RunID: "r1"}); !errors.Is(err, ErrStreamExists) {
		t.Errorf("double start err = %v", err)
	}
	startStream(t, m, "r2")
	if _, err := m.Start(&StartRequest{App: "x", RunID: "r3"}); !errors.Is(err, ErrTooManyStreams) {
		t.Errorf("over-limit start err = %v", err)
	}
	// Finalize r1, then a re-start of the same triple must be refused:
	// the run is already in the store.
	if _, err := m.Samples(&SamplesRequest{App: "x", RunID: "r1", Seq: 1, Samples: fakeSamples("x:1", "n01", 4, 0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.End(&EndRequest{App: "x", RunID: "r1", Seq: 2, Elapsed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start(&StartRequest{App: "x", RunID: "r1"}); err == nil {
		t.Error("start of a finalized run accepted")
	}
}

// TestManagerDiscardAndPoison: a discarded stream saves nothing, and a
// poisoned stream (bad sample) reports its feed error then discards.
func TestManagerDiscardAndPoison(t *testing.T) {
	env := harness.NewEnv(nil)
	m := NewManager(env, ManagerOptions{})
	defer m.Close()

	startStream(t, m, "r1")
	if _, err := m.Samples(&SamplesRequest{App: "x", RunID: "r1", Seq: 1, Samples: fakeSamples("x:1", "n01", 4, 0)}); err != nil {
		t.Fatal(err)
	}
	if resp, err := m.End(&EndRequest{App: "x", RunID: "r1", Discard: true}); err != nil || resp.Saved != "" {
		t.Fatalf("discard: %v %+v", err, resp)
	}
	if _, err := env.Store().Load("x", "", "r1"); err == nil {
		t.Error("discarded run was stored")
	}

	startStream(t, m, "r2")
	bad := []Sample{{Proc: "x:1", Node: "n01", Kind: "warp", Start: 0, End: 1}}
	if _, err := m.Samples(&SamplesRequest{App: "x", RunID: "r2", Seq: 1, Samples: bad}); err != nil {
		t.Fatal(err) // queued; the worker discovers the poison
	}
	// The feed error surfaces on a later call once the worker applied it.
	deadline := time.After(2 * time.Second)
	for {
		_, err := m.Samples(&SamplesRequest{App: "x", RunID: "r2", Seq: 2, Samples: fakeSamples("x:1", "n01", 1, 1)})
		if err != nil && !errors.Is(err, ErrStreamBusy) {
			break
		}
		select {
		case <-deadline:
			t.Fatal("poison never surfaced")
		case <-time.After(time.Millisecond):
		}
	}
	if _, err := m.End(&EndRequest{App: "x", RunID: "r2", Seq: 0}); err == nil {
		t.Fatal("end of poisoned stream succeeded")
	}
	if _, err := env.Store().Load("x", "", "r2"); err == nil {
		t.Error("poisoned run was stored")
	}
	if got := m.Snapshot().Discarded; got != 2 {
		t.Errorf("discarded = %d", got)
	}
}

// TestManagerIdleTimeout: a stream whose client goes quiet is finalized
// by the janitor as if the end marker had arrived.
func TestManagerIdleTimeout(t *testing.T) {
	env := harness.NewEnv(nil)
	m := NewManager(env, ManagerOptions{IdleTimeout: 30 * time.Millisecond})
	defer m.Close()
	startStream(t, m, "r1")
	if _, err := m.Samples(&SamplesRequest{App: "x", RunID: "r1", Seq: 1, Samples: fakeSamples("x:1", "n01", 4, 0)}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		if _, err := env.Store().Load("x", "", "r1"); err == nil {
			break
		}
		select {
		case <-deadline:
			t.Fatal("idle stream never finalized")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if got := m.Snapshot().IdleFinalized; got != 1 {
		t.Errorf("idle_finalized = %d", got)
	}
}

// TestManagerClose: shutdown refuses new work and discards what was
// still active.
func TestManagerClose(t *testing.T) {
	env := harness.NewEnv(nil)
	m := NewManager(env, ManagerOptions{})
	startStream(t, m, "r1")
	m.Close()
	m.Close() // idempotent
	if _, err := m.Start(&StartRequest{App: "x", RunID: "r2"}); !errors.Is(err, ErrClosed) {
		t.Errorf("start after close err = %v", err)
	}
	if _, err := m.Samples(&SamplesRequest{App: "x", RunID: "r1", Seq: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("samples after close err = %v", err)
	}
	if _, err := env.Store().Load("x", "", "r1"); err == nil {
		t.Error("close saved an unfinished stream")
	}
}

// TestManagerConcurrentStreamsDeterministic runs the same set of
// streams twice — concurrently, with harvesting on so later streams are
// steered by whatever finalized before them — and checks the stores end
// byte-identical: scheduling and steering never leak into the records.
func TestManagerConcurrentStreamsDeterministic(t *testing.T) {
	streams := make(map[string][]Sample, 6)
	for i := 0; i < 6; i++ {
		runID := fmt.Sprintf("r%d", i)
		n := 40 + 13*i
		streams[runID] = fakeSamples(fmt.Sprintf("x:%d", i%3+1), fmt.Sprintf("n0%d", i%3+1), n, 0)
	}
	digest := func() string {
		env := harness.NewEnv(nil)
		m := NewManager(env, ManagerOptions{})
		defer m.Close()
		var wg sync.WaitGroup
		for runID, samples := range streams {
			wg.Add(1)
			go func(runID string, samples []Sample) {
				defer wg.Done()
				if _, err := m.Start(&StartRequest{App: "x", RunID: runID, Harvest: true}); err != nil {
					t.Error(err)
					return
				}
				seq := 1
				for i := 0; i < len(samples); i += 16 {
					end := i + 16
					if end > len(samples) {
						end = len(samples)
					}
					req := &SamplesRequest{App: "x", RunID: runID, Seq: seq, Samples: samples[i:end]}
					for {
						_, err := m.Samples(req)
						if err == nil {
							break
						}
						if !errors.Is(err, ErrStreamBusy) {
							t.Error(err)
							return
						}
						time.Sleep(time.Millisecond)
					}
					seq++
				}
				if _, err := m.End(&EndRequest{App: "x", RunID: runID, Seq: seq, Elapsed: 2}); err != nil {
					t.Error(err)
				}
			}(runID, samples)
		}
		wg.Wait()
		keys := env.Store().Keys()
		h := sha256.New()
		for _, k := range keys {
			rec, err := env.Store().Load(k.App, k.Version, k.RunID)
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(data)
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	if a, b := digest(), digest(); a != b {
		t.Errorf("concurrent replays diverged: %s vs %s", a, b)
	}
}

// TestHarvestSharedFoldIdentity: a harvesting stream's start and pcd's
// /harvest fold stored runs through one Env method, so two harvesting
// starts over the same stored runs and an "and" HarvestRuns over the
// same refs get the same set, compiled once. The cache counts what the
// two separate folds once counted: five misses at the first start (three
// harvests, two combines), five hits at each later fold.
func TestHarvestSharedFoldIdentity(t *testing.T) {
	env := harness.NewEnv(nil)
	m := NewManager(env, ManagerOptions{})
	defer m.Close()
	for i := 0; i < 3; i++ {
		runID := fmt.Sprintf("r%d", i)
		startStream(t, m, runID)
		samples := fakeSamples(fmt.Sprintf("x:%d", i+1), fmt.Sprintf("n0%d", i+1), 40+13*i, 0)
		if _, err := m.Samples(&SamplesRequest{App: "x", RunID: runID, Seq: 1, Samples: samples}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.End(&EndRequest{App: "x", RunID: runID, Seq: 2, Elapsed: 2}); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := env.Store().LoadAll("x", "")
	if err != nil || len(recs) != 3 {
		t.Fatalf("stored runs: %d, %v", len(recs), err)
	}
	refs := make([]string, len(recs))
	for i, rec := range recs {
		refs[i] = rec.Version + ":" + rec.RunID
	}

	hits0, misses0 := env.Cache().Stats()
	var sets []*core.DirectiveSet
	var guides []*core.Guide
	for _, runID := range []string{"h1", "h2"} {
		resp, err := m.Start(&StartRequest{App: "x", RunID: runID, Harvest: true})
		if err != nil {
			t.Fatal(err)
		}
		if resp.SourceRuns != 3 || resp.Directives == 0 {
			t.Fatalf("%s: %d directives from %d runs", runID, resp.Directives, resp.SourceRuns)
		}
		s, err := m.lookup("x", "", runID)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, s.eng.opts.Directives)
		guides = append(guides, s.eng.opts.guide)
	}
	ds, _, err := env.HarvestRuns("x", refs, core.HarvestAll(), "and", "")
	if err != nil {
		t.Fatal(err)
	}
	if sets[0] != sets[1] || ds != sets[0] {
		t.Errorf("one fold gave three sets: %p, %p and /harvest's %p", sets[0], sets[1], ds)
	}
	if guides[0] != guides[1] || guides[0] != env.Cache().Guide(ds) {
		t.Error("the fold's set was compiled more than once")
	}
	hits, misses := env.Cache().Stats()
	if hits-hits0 != 10 || misses-misses0 != 5 {
		t.Errorf("the folds counted %d hits and %d misses, want 10 and 5", hits-hits0, misses-misses0)
	}
	// No combine named is "and".
	if def, _, err := env.HarvestRuns("x", refs, core.HarvestAll(), "", ""); err != nil || def != ds {
		t.Errorf("the default combine gave %p (%v), not the \"and\" set %p", def, err, ds)
	}
}
