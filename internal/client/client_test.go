package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/harness"
	"repro/internal/ingest"
	"repro/internal/server"
)

func newTestServer(t *testing.T) (*client.Client, *server.Server) {
	t.Helper()
	srv := server.New(harness.NewEnv(nil), server.Options{Sessions: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	// A trailing slash on the base URL must not produce `//` paths.
	return client.New(ts.URL + "/"), srv
}

// TestNotFoundUnwrapsToErrNotExist proves a 404 behaves like a local
// store miss: errors.Is(err, os.ErrNotExist) holds, and the status is
// recoverable from the error.
func TestNotFoundUnwrapsToErrNotExist(t *testing.T) {
	cl, _ := newTestServer(t)
	_, err := cl.GetRun(context.Background(), "poisson", "A:missing")
	if err == nil {
		t.Fatal("GetRun of a missing record succeeded")
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("error %v does not unwrap to os.ErrNotExist", err)
	}
	var se *client.StatusError
	if !errors.As(err, &se) || se.Status != 404 {
		t.Fatalf("error %v is not a 404 StatusError", err)
	}
}

// TestBadRequestIsStatusError proves non-404 server rejections carry
// the server's message.
func TestBadRequestIsStatusError(t *testing.T) {
	cl, _ := newTestServer(t)
	_, err := cl.GetRun(context.Background(), "poisson", "no-colon")
	var se *client.StatusError
	if !errors.As(err, &se) || se.Status != 400 || se.Message == "" {
		t.Fatalf("malformed ref error = %v, want 400 StatusError with message", err)
	}
	if errors.Is(err, os.ErrNotExist) {
		t.Fatal("400 must not unwrap to os.ErrNotExist")
	}
}

// TestWaitHealthy proves the startup handshake succeeds against a live
// server and fails with the context's error against a draining one.
func TestWaitHealthy(t *testing.T) {
	cl, srv := newTestServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := cl.WaitHealthy(ctx); err != nil {
		t.Fatal(err)
	}

	srv.BeginDrain()
	dctx, dcancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer dcancel()
	err := cl.WaitHealthy(dctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitHealthy on draining server = %v, want DeadlineExceeded", err)
	}
}

// TestConnectionError proves transport failures surface as plain
// errors, not StatusErrors.
func TestConnectionError(t *testing.T) {
	cl := client.New("http://127.0.0.1:1")
	_, err := cl.Health(context.Background())
	if err == nil {
		t.Fatal("Health against a closed port succeeded")
	}
	var se *client.StatusError
	if errors.As(err, &se) {
		t.Fatalf("transport failure decoded as StatusError: %v", err)
	}
}

// TestIngestSamplesBodyIsJSONMarshals proves the batch the client puts on
// the wire is byte for byte what json.Marshal made of it before the
// direct codec wrote it, and that a sample time JSON cannot spell is
// refused with encoding/json's error before anything is sent.
func TestIngestSamplesBodyIsJSONMarshals(t *testing.T) {
	var bodies [][]byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		bodies = append(bodies, body)
		w.Write([]byte(`{"accepted":0}`))
	}))
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()

	reqs := []*ingest.SamplesRequest{
		{App: "mw", Version: "<v>", RunID: "r ", Seq: 3, Samples: []ingest.Sample{
			{Proc: "mw:1", Node: "n01", Mod: "worker.c", Fn: "compute", Kind: "cpu", Start: 1e-7, End: 1.5, Calls: 1},
			{Proc: "mw:0", Node: "n00", Tag: "t\"1", Kind: "sync_wait", Start: 1.5, End: 1e21, Msgs: 1, Bytes: -64},
		}},
		{App: "mw", RunID: "r", Seq: 1, Samples: []ingest.Sample{}},
		{App: "mw", RunID: "r", Seq: 1},
		nil,
	}
	for i, req := range reqs {
		if _, err := cl.IngestSamples(ctx, req); err != nil {
			t.Fatal(err)
		}
		if want, _ := json.Marshal(req); len(bodies) != i+1 || !bytes.Equal(bodies[i], want) {
			t.Fatalf("request %d went out as %s, want %s", i, bodies[len(bodies)-1], want)
		}
	}

	bad := &ingest.SamplesRequest{App: "mw", RunID: "r", Seq: 1, Samples: []ingest.Sample{{Proc: "p", Node: "n", Kind: "cpu", End: math.NaN()}}}
	_, err := cl.IngestSamples(ctx, bad)
	_, want := json.Marshal(bad)
	if err == nil || want == nil || err.Error() != "client: encode request: "+want.Error() || len(bodies) != len(reqs) {
		t.Fatalf("a NaN sample: %v, want encoding/json's %v and nothing sent", err, want)
	}
}
