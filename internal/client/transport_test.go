package client_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/history"
	"repro/internal/server"
)

// Transport-failure classification: a request that never produced an
// HTTP status is the server's problem (ErrUnavailable, retry later),
// a request the caller abandoned is not, and a 409 is a deliberate,
// final fencing verdict.

// TestDialRefusedIsUnavailable proves a connection-refused dial maps to
// ErrUnavailable — the caller backs off exactly as for a 503 — while
// the underlying net error stays reachable for diagnostics.
func TestDialRefusedIsUnavailable(t *testing.T) {
	cl := client.New("http://127.0.0.1:1")
	_, err := cl.Health(context.Background())
	if err == nil {
		t.Fatal("Health against a closed port succeeded")
	}
	if !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("dial refused = %v, want errors.Is ErrUnavailable", err)
	}
	var te *client.TransportError
	if !errors.As(err, &te) {
		t.Fatalf("dial refused = %v, want a TransportError", err)
	}
	var ne net.Error
	var oe *net.OpError
	if !errors.As(err, &ne) && !errors.As(err, &oe) {
		t.Fatalf("TransportError hides the net error: %v", err)
	}
}

// TestListenerClosedMidFlight proves a connection cut after the
// response headers — the server died mid-reply, the classic mid-failover
// shape — is ErrUnavailable too: the advertised body never arrives and
// the read fails with an unexpected EOF, which is a transport outcome,
// not a decode bug.
func TestListenerClosedMidFlight(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Fatal("response writer cannot hijack")
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			t.Fatal(err)
		}
		// Promise 100 bytes, deliver 2, kill the connection.
		conn.Write([]byte("HTTP/1.1 200 OK\r\nContent-Length: 100\r\nContent-Type: application/json\r\n\r\n{\""))
		conn.Close()
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cl := client.New(ts.URL)
	_, err := cl.Health(context.Background())
	if err == nil {
		t.Fatal("Health over a connection closed mid-response succeeded")
	}
	if !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("mid-flight close = %v, want errors.Is ErrUnavailable", err)
	}
	var te *client.TransportError
	if !errors.As(err, &te) {
		t.Fatalf("mid-flight close = %v, want a TransportError", err)
	}
}

// TestCanceledContextIsNotUnavailable proves context expiry stays out
// of the transient bucket: the caller gave up, so retry/backoff logic
// keyed on ErrUnavailable must not fire.
func TestCanceledContextIsNotUnavailable(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Hold the reply until the caller's deadline fires.
		<-r.Context().Done()
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	cl := client.New(ts.URL)
	_, err := cl.Health(ctx)
	if err == nil {
		t.Fatal("Health with an expired context succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired context = %v, want DeadlineExceeded", err)
	}
	if errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("expired context = %v must NOT be ErrUnavailable", err)
	}
}

// TestFencedIsFinal proves the fencing contract end to end on the
// client: a 409 unwraps to ErrFenced, and even a retry-armed client
// sends exactly one attempt — a fenced node never changes its answer,
// so retrying there would just delay the repoint.
func TestFencedIsFinal(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		w.Write([]byte(`{"error":"replica: pull fenced: epoch 3 is stale (cluster epoch 5)"}`))
	}))
	defer ts.Close()

	cl := client.NewResilient(ts.URL, 3)
	_, err := cl.Stats(context.Background())
	if err == nil {
		t.Fatal("request to a fenced node succeeded")
	}
	if !errors.Is(err, client.ErrFenced) {
		t.Fatalf("409 = %v, want errors.Is ErrFenced", err)
	}
	if errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("409 = %v must NOT be ErrUnavailable (it is final)", err)
	}
	var se *client.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusConflict {
		t.Fatalf("409 = %v, want a 409 StatusError", err)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("fenced request was attempted %d times, want exactly 1", n)
	}
}

// TestResponseBodyFraming: the client sizes one buffer from a declared
// length and reads to the end when there is none, and in every framing
// a body that stops short is a transport failure (retry later), never a
// decode error and never a short record.
func TestResponseBodyFraming(t *testing.T) {
	rec := &history.RunRecord{App: "a", RunID: "r", Usage: map[string]float64{}}
	for i := 0; i < 200; i++ { // well over the 2 KB net/http sizes by itself
		rec.Usage[fmt.Sprintf("/Code/f%03d.c/fn", i)] = float64(i) / 7
	}
	body, err := server.MarshalCanonical(rec)
	if err != nil {
		t.Fatal(err)
	}
	chunked := func(b []byte) []byte {
		half := len(b) / 2
		return []byte(fmt.Sprintf("%x\r\n%s\r\n%x\r\n%s\r\n0\r\n\r\n", half, b[:half], len(b)-half, b[half:]))
	}
	rows := []struct {
		name    string
		header  string
		payload []byte
		short   bool
	}{
		{"declared length", fmt.Sprintf("Content-Length: %d", len(body)), body, false},
		{"declared length, short body", fmt.Sprintf("Content-Length: %d", len(body)), body[:len(body)/2], true},
		{"no length, read to close", "Connection: close", body, false},
		{"chunked", "Transfer-Encoding: chunked", chunked(body), false},
		{"chunked, cut mid-chunk", "Transfer-Encoding: chunked", chunked(body)[:len(body)/3], true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				conn, _, err := w.(http.Hijacker).Hijack()
				if err != nil {
					t.Error(err)
					return
				}
				fmt.Fprintf(conn, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n%s\r\n\r\n", row.header)
				conn.Write(row.payload)
				conn.Close()
			}))
			defer ts.Close()
			got, err := client.New(ts.URL).GetRun(context.Background(), "a", ":r")
			if row.short {
				var te *client.TransportError
				if !errors.As(err, &te) || !errors.Is(err, client.ErrUnavailable) {
					t.Fatalf("short body = (%v, %v), want a TransportError that is ErrUnavailable", got, err)
				}
				return
			}
			if err != nil || !reflect.DeepEqual(got, rec) {
				t.Fatalf("GetRun = (%+v, %v), want the record sent", got, err)
			}
		})
	}
}
