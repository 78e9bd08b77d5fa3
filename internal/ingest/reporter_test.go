package ingest_test

import (
	"context"
	"testing"
	"time"

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

// flaky wraps a Sender, failing every other Samples call with
// backpressure — after the manager has already applied the batch, so
// the retry also exercises the idempotent dup path.
type flaky struct {
	ingest.Sender
	n int
}

func (f *flaky) IngestSamples(ctx context.Context, req *ingest.SamplesRequest) (*ingest.SamplesResponse, error) {
	resp, err := f.Sender.IngestSamples(ctx, req)
	f.n++
	if err == nil && f.n%2 == 1 {
		return nil, ingest.ErrStreamBusy
	}
	return resp, err
}

// TestReporterRetriesBackpressure: batches refused (or whose acks were
// lost) are re-sent until accepted, and the resends do not double-apply
// samples.
func TestReporterRetriesBackpressure(t *testing.T) {
	env := harness.NewEnv(nil)
	mgr := ingest.NewManager(env, ingest.ManagerOptions{})
	defer mgr.Close()

	snd := &flaky{Sender: ingest.LocalSender{M: mgr}}
	r := ingest.NewReporter(context.Background(), snd, "x", "", "r1", ingest.ReporterOptions{
		BatchSize: 4,
		Sleep: func(context.Context, time.Duration) error {
			time.Sleep(time.Millisecond) // fast but real: let the worker drain
			return nil
		},
	})
	if _, err := r.Start(); err != nil {
		t.Fatal(err)
	}
	for _, s := range collectSamples(t, "mw", 3, 2) {
		iv, err := s.Interval()
		if err != nil {
			t.Fatal(err)
		}
		r.OnInterval(iv)
	}
	resp, err := r.Finish(2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Resends() == 0 {
		t.Error("flaky sender produced no resends")
	}
	if resp.Samples != r.Samples() {
		t.Errorf("manager accepted %d samples, reporter sent %d", resp.Samples, r.Samples())
	}
	if _, err := env.Store().Load("x", "", "r1"); err != nil {
		t.Fatal(err)
	}
}

// TestReporterGivesUp surfaces a permanent failure: the latched error
// comes back from Finish and the stream is discarded server-side.
func TestReporterGivesUp(t *testing.T) {
	env := harness.NewEnv(nil)
	mgr := ingest.NewManager(env, ingest.ManagerOptions{})
	defer mgr.Close()
	r := ingest.NewReporter(context.Background(), ingest.LocalSender{M: mgr}, "x", "", "r1", ingest.ReporterOptions{
		BatchSize: 1,
		Sleep:     func(context.Context, time.Duration) error { return nil },
	})
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
