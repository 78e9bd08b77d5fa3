package ingest_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/app"
	"repro/internal/harness"
	"repro/internal/ingest"
	"repro/internal/sim"
)

// TestReporterStreamsRun drives a full run through the reporter path —
// simulator observer, batching, seq protocol, end marker — against an
// in-process manager, and checks the stored record is byte-identical to
// the batch diagnosis of the same run.
func TestReporterStreamsRun(t *testing.T) {
	const elapsed = 20.0
	env := harness.NewEnv(nil)
	mgr := ingest.NewManager(env, ingest.ManagerOptions{})
	defer mgr.Close()

	a, err := app.Build("mw", "", app.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.NewSimulator(sim.Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	r := ingest.NewReporter(context.Background(), ingest.LocalSender{M: mgr}, "mw", "", "live", ingest.ReporterOptions{BatchSize: 32})
	if _, err := r.Start(); err != nil {
		t.Fatal(err)
	}
	s.AddObserver(r)
	if err := s.Run(elapsed); err != nil {
		t.Fatal(err)
	}
	resp, err := r.Finish(elapsed)
	if err != nil {
		t.Fatal(err)
	}
	samples := collectSamples(t, "mw", 11, elapsed)
	if resp.Samples != len(samples) {
		t.Errorf("streamed %d samples, simulator produced %d", resp.Samples, len(samples))
	}
	if r.Batches() == 0 || r.Err() != nil {
		t.Fatalf("batches = %d, err = %v", r.Batches(), r.Err())
	}
	got, err := env.Store().Load("mw", "", "live")
	if err != nil {
		t.Fatal(err)
	}
	want := batchDiagnose(t, "mw", "live", samples, elapsed)
	if string(recordBytes(t, got)) != string(recordBytes(t, want)) {
		t.Error("streamed record differs from batch diagnosis")
	}
	if len(resp.Bottlenecks) == 0 {
		t.Error("no bottlenecks in end response")
	}
}

// failFrom wraps a Sender, failing every samples batch from seq on.
type failFrom struct {
	ingest.Sender
	seq int
}

func (f failFrom) IngestSamples(ctx context.Context, req *ingest.SamplesRequest) (*ingest.SamplesResponse, error) {
	if req.Seq >= f.seq {
		return nil, errors.New("link down")
	}
	return f.Sender.IngestSamples(ctx, req)
}

// TestReporterFinishDiscardsOnTailFailure: when Finish's tail flush
// fails, the stream is discarded at once — not left for the idle
// timeout to save as a record missing its tail batch.
func TestReporterFinishDiscardsOnTailFailure(t *testing.T) {
	env := harness.NewEnv(nil)
	mgr := ingest.NewManager(env, ingest.ManagerOptions{})
	defer mgr.Close()
	r := ingest.NewReporter(context.Background(), failFrom{ingest.LocalSender{M: mgr}, 2}, "mw", "", "broken", ingest.ReporterOptions{BatchSize: 32})
	if _, err := r.Start(); err != nil {
		t.Fatal(err)
	}
	for _, s := range collectSamples(t, "mw", 11, 20)[:40] {
		iv, err := s.Interval()
		if err != nil {
			t.Fatal(err)
		}
		r.OnInterval(iv)
	}
	if r.Err() != nil || r.Batches() != 1 {
		t.Fatalf("first batch: batches = %d, err = %v", r.Batches(), r.Err())
	}
	if _, err := r.Finish(20); err == nil {
		t.Fatal("finish with a failed tail batch succeeded")
	}
	if st := mgr.Snapshot(); st.Active != 0 || st.Discarded != 1 || st.Finalized != 0 {
		t.Errorf("stats after a failed finish = %+v, want the stream discarded", st)
	}
	if _, err := env.Store().Load("mw", "", "broken"); err == nil {
		t.Error("stream with a lost tail batch was stored")
	}
}

// TestReporterGivesUp surfaces a permanent failure: the latched error
// comes back from Finish and the stream is discarded server-side.
func TestReporterGivesUp(t *testing.T) {
	env := harness.NewEnv(nil)
	mgr := ingest.NewManager(env, ingest.ManagerOptions{})
	defer mgr.Close()
	r := ingest.NewReporter(context.Background(), ingest.LocalSender{M: mgr}, "x", "", "r1", ingest.ReporterOptions{BatchSize: 1})
	// Never started: the first flush fails and latches.
	r.OnInterval(sim.Interval{Labels: &sim.Labels{Process: "x:1", Node: "n01"}, Kind: sim.KindCPU, Start: 0, End: 1})
	if r.Err() == nil {
		t.Fatal("unstarted reporter accepted samples")
	}
	if _, err := r.Finish(1); err == nil {
		t.Fatal("finish of failed stream succeeded")
	}
	if _, err := env.Store().Load("x", "", "r1"); err == nil {
		t.Error("failed stream was stored")
	}
}
