package server_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/client"
	"repro/internal/harness"
	"repro/internal/history"
	"repro/internal/server"
)

// TestStatszStages: every stage /statsz promises is timed once its
// request has run — a put, a get, a query, a diagnosis and a stream
// against a journaled store — and each refusal is counted under its
// reason, all reasons reported from the start. A get that sends the
// record's stored bytes has no encode stage; one whose file is gone
// behind the store's back encodes the index copy, and times that.
func TestStatszStages(t *testing.T) {
	st, err := history.OpenStoreDurable(t.TempDir(), history.DurableOptions{Create: true, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := server.New(harness.NewEnv(st), server.Options{Sessions: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.NewResilient(ts.URL, 6)
	ctx := context.Background()

	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, reason := range []string{"degraded", "write_gate", "fenced", "backend", "ingest_busy", "ingest_closed", "draining"} {
		if n, ok := stats.Refusals[reason]; !ok || n != 0 {
			t.Errorf("refusals[%s] = %d, %v at start, want a zero row", reason, n, ok)
		}
	}

	rec := &history.RunRecord{App: "stages", Version: "A", RunID: "r1", TrueCount: 1, Results: []history.NodeResult{{Hyp: "CPUbound", Focus: "</Code>", State: "true", Value: 0.5}}}
	if _, err := cl.PutRun(ctx, rec); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GetRun(ctx, "stages", "A:r1"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query(ctx, client.QueryParams{App: "stages"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Diagnose(ctx, &server.DiagnoseRequest{App: "tester", MaxTime: 20}); err != nil {
		t.Fatal(err)
	}
	streamRun(t, cl, "mw", "s1", 11, 20)

	if stats, err = cl.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	for op, stages := range map[string][]string{
		"put_run":  {"read", "decode", "write"},
		"commit":   {"gate", "journal", "stage", "publish"},
		"get_run":  {"read"},
		"query":    {"read", "encode"},
		"diagnose": {"wait", "session", "encode"},
		"stream":   {"decode", "feed", "finalize", "save"},
	} {
		for _, stage := range stages {
			row, ok := stats.Stages[op][stage]
			if !ok || row.Count == 0 || row.P50US <= 0 || row.P99US < row.P50US {
				t.Errorf("stages[%s][%s] = %+v, %v; want a timed row", op, stage, row, ok)
			}
		}
	}
	// The put and the stream's end both commit, each once.
	if n := stats.Stages["commit"]["journal"].Count; n != 2 {
		t.Errorf("commit/journal ran %d times, want 2 (the put and the stream's save)", n)
	}
	if row, ok := stats.Stages["get_run"]["encode"]; ok {
		t.Errorf("stages[get_run][encode] = %+v after a get of a stored record, want no row", row)
	}
	if err := st.Backend().Delete(rec.Key()); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GetRun(ctx, "stages", "A:r1"); err != nil {
		t.Fatal(err)
	}
	if stats, err = cl.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if row := stats.Stages["get_run"]["encode"]; row.Count != 1 || row.P50US <= 0 {
		t.Errorf("stages[get_run][encode] = %+v after a get whose file is gone, want one timed sample", row)
	}

	srv.BeginDrain()
	_, err = cl.Diagnose(ctx, &server.DiagnoseRequest{App: "tester", MaxTime: 20})
	var se *client.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("diagnose while draining: %v, want a 503", err)
	}
	if stats, err = cl.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if n := stats.Refusals["draining"]; n != 1 {
		t.Errorf("refusals[draining] = %d after one refused diagnosis, want 1", n)
	}
}
