package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"

	"repro/internal/app"
	"repro/internal/client"
	"repro/internal/harness"
	"repro/internal/history"
	"repro/internal/ingest"
	"repro/internal/server"
	"repro/internal/sim"
)

// streamRun drives one simulated run of the named archetype through a
// Reporter shipping to snd, and returns the finalized end response.
func streamRun(t testing.TB, snd ingest.Sender, name, runID string, seed int64, maxTime float64) *ingest.EndResponse {
	t.Helper()
	a, err := app.Build(name, "", app.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.NewSimulator(sim.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rep := ingest.NewReporter(context.Background(), snd, name, "", runID, ingest.ReporterOptions{BatchSize: 32})
	if _, err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	s.AddObserver(rep)
	if err := s.Run(maxTime); err != nil {
		t.Fatal(err)
	}
	resp, err := rep.Finish(maxTime)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// scribbler is an in-process sender whose caller reuses its batch buffer
// the moment the batch is acknowledged.
type scribbler struct{ ingest.LocalSender }

func (s scribbler) IngestSamples(ctx context.Context, req *ingest.SamplesRequest) (*ingest.SamplesResponse, error) {
	resp, err := s.LocalSender.IngestSamples(ctx, req)
	if err == nil { // an acknowledged batch's buffer is the caller's again
		for i := range req.Samples {
			req.Samples[i] = ingest.Sample{Proc: "overwritten", Node: "overwritten", Kind: "cpu", End: 1e6}
		}
	}
	return resp, err
}

// TestReporterResendsThroughClient: over the wire the client's retry
// ladder is the reporter's one resend rung. A samples batch the daemon
// applied but whose acknowledgement came back as a 503 is resent by the
// client and acknowledged as a duplicate, and the stream finalizes with
// every sample counted once.
func TestReporterResendsThroughClient(t *testing.T) {
	srv := server.New(harness.NewEnv(nil), server.Options{Sessions: 1})
	h := srv.Handler()
	var lost atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/ingest/samples" && lost.CompareAndSwap(false, true) {
			h.ServeHTTP(httptest.NewRecorder(), r)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"acknowledgement lost"}`))
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	cl := client.NewResilient(ts.URL, 3)
	resp := streamRun(t, cl, "mw", "lossy", 11, 20)

	mgr := ingest.NewManager(harness.NewEnv(nil), ingest.ManagerOptions{})
	defer mgr.Close()
	want := streamRun(t, ingest.LocalSender{M: mgr}, "mw", "lossy", 11, 20)
	if resp.Samples != want.Samples {
		t.Errorf("stream over a lossy link counted %d samples, want %d", resp.Samples, want.Samples)
	}
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingest.DupBatches < 1 || st.Ingest.Finalized != 1 || st.Ingest.Samples != uint64(want.Samples) {
		t.Errorf("ingest stats = %+v, want a duplicate acknowledged, one stream finalized and %d samples", st.Ingest, want.Samples)
	}
}

// TestIngestOverHTTP proves the wire adds nothing and loses nothing:
// a run streamed through the HTTP client finalizes into a record
// byte-identical to the same run streamed through an in-process
// manager, the /statsz ingest block moves, and the intake's sentinel
// errors arrive as their documented statuses.
func TestIngestOverHTTP(t *testing.T) {
	opts := ingest.ManagerOptions{EvalBudget: 24}
	srv := server.New(harness.NewEnv(nil), server.Options{Sessions: 1, Ingest: opts})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.NewResilient(ts.URL, 6) // the ladder absorbs 429 backpressure
	ctx := context.Background()

	resp := streamRun(t, cl, "mw", "wire1", 11, 20)
	if resp.Saved == "" || len(resp.Bottlenecks) == 0 {
		t.Fatalf("wire stream finalized empty: %+v", resp)
	}

	// The same run through an in-process manager, for the byte-identity
	// claim — from a sender that overwrites its buffer the moment a batch
	// is acknowledged: the manager keeps what it is handed, so the sender
	// that keeps its buffer is the one that copies.
	env2 := harness.NewEnv(nil)
	mgr := ingest.NewManager(env2, opts)
	defer mgr.Close()
	local := streamRun(t, scribbler{ingest.LocalSender{M: mgr}}, "mw", "wire1", 11, 20)
	if local.Saved != resp.Saved {
		t.Fatalf("saved keys differ: wire %q, local %q", resp.Saved, local.Saved)
	}
	wireRec, err := srv.Env().Store().Load("mw", "", "wire1")
	if err != nil {
		t.Fatal(err)
	}
	localRec, err := env2.Store().Load("mw", "", "wire1")
	if err != nil {
		t.Fatal(err)
	}
	wb, _ := json.Marshal(wireRec)
	lb, _ := json.Marshal(localRec)
	if string(wb) != string(lb) {
		t.Error("wire-streamed record differs from the in-process stream")
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingest.Started != 1 || st.Ingest.Finalized != 1 {
		t.Errorf("ingest stats = %+v, want one started, one finalized", st.Ingest)
	}
	for _, op := range []string{"ingest_start", "ingest_samples", "ingest_end"} {
		if st.OpCounts[op] == 0 {
			t.Errorf("op_counts[%s] = 0 after a streamed run", op)
		}
	}

	// Sentinel-to-status mapping, through a client that does not retry.
	plain := client.New(ts.URL)
	var se *client.StatusError
	_, err = plain.IngestEnd(ctx, &ingest.EndRequest{App: "mw", RunID: "nosuch"})
	if !errors.As(err, &se) || se.Status != 404 || !errors.Is(err, os.ErrNotExist) {
		t.Errorf("end of unknown stream: %v", err)
	}
	// A finalized run cannot restart.
	if _, err := plain.IngestStart(ctx, &ingest.StartRequest{App: "mw", RunID: "wire1"}); err == nil {
		t.Error("restart of a finalized run succeeded")
	}
	// A watch that names no possible pair is a bad request.
	_, err = plain.IngestStart(ctx, &ingest.StartRequest{App: "mw", RunID: "wire2", Watch: []ingest.Watch{{Hyp: "CPUbound", Path: "ode"}}})
	if !errors.As(err, &se) || se.Status != 400 {
		t.Errorf("start with a malformed watch: %v", err)
	}
	// A double start of an active stream is a conflict.
	if _, err := plain.IngestStart(ctx, &ingest.StartRequest{App: "mw", RunID: "wire2"}); err != nil {
		t.Fatal(err)
	}
	_, err = plain.IngestStart(ctx, &ingest.StartRequest{App: "mw", RunID: "wire2"})
	if !errors.As(err, &se) || se.Status != 409 {
		t.Errorf("double start: %v", err)
	}
	if _, err := plain.IngestEnd(ctx, &ingest.EndRequest{App: "mw", RunID: "wire2", Discard: true}); err != nil {
		t.Fatal(err)
	}

	// Shutdown closes the intake: new streams are refused 503.
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	_, err = plain.IngestStart(ctx, &ingest.StartRequest{App: "mw", RunID: "wire3"})
	if !errors.As(err, &se) || se.Status != 503 {
		t.Errorf("start after shutdown: %v", err)
	}
}

// TestPutRunsBatchHTTP exercises the batch write endpoint: one round
// trip lands several records through Storage.PutBatch, and an empty or
// malformed batch is refused whole.
func TestPutRunsBatchHTTP(t *testing.T) {
	srv := server.New(harness.NewEnv(nil), server.Options{Sessions: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()

	recs := []*history.RunRecord{
		{App: "batch-app", Version: "A", RunID: "r1"},
		{App: "batch-app", Version: "A", RunID: "r2"},
		{App: "batch-app", Version: "B", RunID: "r1"},
	}
	saved, err := cl.PutRuns(ctx, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) != 3 {
		t.Fatalf("saved %d names, want 3: %v", len(saved), saved)
	}
	runs, err := cl.ListRuns(ctx, "batch-app", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Errorf("stored %d runs, want 3: %v", len(runs), runs)
	}

	if _, err := cl.PutRuns(ctx, nil); err == nil {
		t.Error("empty batch accepted")
	}
	bad := &history.RunRecord{App: "batch-app", RunID: "r9", TrueCount: 5}
	if _, err := cl.PutRuns(ctx, []*history.RunRecord{bad}); err == nil {
		t.Error("malformed batch accepted")
	}
	if _, err := srv.Env().Store().Load("batch-app", "", "r9"); err == nil {
		t.Error("malformed batch left a partial write")
	}
}
