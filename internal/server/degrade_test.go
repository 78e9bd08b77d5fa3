package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/history"
)

// faultServer builds a server over a journaled disk store writing through
// a fault injector, installed as pcd -fault-* installs one; SyncNone,
// since durability is not under test.
func faultServer(t *testing.T, opts Options) (*Server, *history.Faults) {
	t.Helper()
	faults := history.NewFaults(history.FaultConfig{Seed: 1})
	st, err := history.OpenStoreDurable(t.TempDir(), history.DurableOptions{
		Create: true, WAL: true, WALOptions: history.WALOptions{Sync: history.SyncNone},
		Faults: func(int) *history.Faults { return faults },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return New(harness.NewEnv(st), opts), faults
}

// doReq performs one request against the handler and returns status,
// headers and decoded body.
func doReq(t *testing.T, h http.Handler, method, target, body string) (*http.Response, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	resp := w.Result()
	defer resp.Body.Close()
	var decoded map[string]any
	data, _ := io.ReadAll(resp.Body)
	if len(data) > 0 {
		if err := json.Unmarshal(data, &decoded); err != nil {
			t.Fatalf("%s %s: body %q is not JSON: %v", method, target, data, err)
		}
	}
	return resp, decoded
}

const putBody = `{"app":"poisson","version":"A","run_id":"r1"}`

// TestDegradedModeLifecycle walks the degradation ladder end to end under
// the disk's fault injector: consecutive backend failures flip the
// server degraded, degraded mode refuses writes with 503 + Retry-After
// without touching the disk while reads keep working from the index,
// /healthz reports "degraded", and after the disk heals a due health
// probe returns the server to "ok" without a restart.
func TestDegradedModeLifecycle(t *testing.T) {
	srv, faults := faultServer(t, Options{Sessions: 1, BreakerThreshold: 2, BreakerCooldown: time.Minute})
	clock := time.Unix(5000, 0)
	srv.now = func() time.Time { return clock }
	h := srv.Handler()

	// Seed one record while healthy so degraded reads have something to
	// serve.
	if resp, _ := doReq(t, h, http.MethodPut, "/api/v1/run", putBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy put: status %d", resp.StatusCode)
	}

	// The backend starts failing. Each failed write is 503 with a
	// Retry-After, and the second one trips the breaker.
	faults.SetConfig(history.FaultConfig{ErrRate: 1})
	for i := 0; i < 2; i++ {
		resp, _ := doReq(t, h, http.MethodPut, "/api/v1/run", putBody)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("failing put %d: status %d, want 503", i, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("failing put %d: no Retry-After header", i)
		}
	}
	if !srv.isDegraded() {
		t.Fatal("two consecutive backend failures did not degrade the server")
	}

	// Degraded: writes are refused before the backend is touched.
	opsBefore := faults.Counters().Ops
	resp, body := doReq(t, h, http.MethodPut, "/api/v1/run", putBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded put: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded put: no Retry-After header")
	}
	if faults.Counters().Ops != opsBefore {
		t.Errorf("degraded put touched the backend: %v", body)
	}

	// Reads still come from the index.
	if resp, body := doReq(t, h, http.MethodGet, "/api/v1/runs", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded read: status %d, body %v", resp.StatusCode, body)
	} else if runs := body["runs"].([]any); len(runs) != 1 {
		t.Fatalf("degraded read lost the index: %v", body)
	}
	if resp, body := doReq(t, h, http.MethodGet, "/api/v1/query?app=poisson", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded query: status %d, body %v", resp.StatusCode, body)
	}

	// Health reports degraded; the probe window has not opened yet, so
	// no probe runs.
	if _, body := doReq(t, h, http.MethodGet, "/healthz", ""); body["status"] != "degraded" {
		t.Fatalf("degraded health = %v", body)
	}
	if n := srv.counts.backendProbes.Load(); n != 0 {
		t.Fatalf("health probed %d times before the cooldown", n)
	}

	// A due probe against a still-broken backend keeps the server
	// degraded and counts the fault.
	clock = clock.Add(2 * time.Minute)
	if _, body := doReq(t, h, http.MethodGet, "/healthz", ""); body["status"] != "degraded" {
		t.Fatalf("health after failed probe = %v", body)
	}
	if n := srv.counts.backendProbes.Load(); n != 1 {
		t.Fatalf("probes = %d, want 1", n)
	}

	// The backend heals; the next due probe ends degraded mode — no
	// restart involved.
	faults.SetConfig(history.FaultConfig{})
	clock = clock.Add(2 * time.Minute)
	if _, body := doReq(t, h, http.MethodGet, "/healthz", ""); body["status"] != "ok" {
		t.Fatalf("health after recovery = %v", body)
	}
	if resp, _ := doReq(t, h, http.MethodPut, "/api/v1/run", putBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("put after recovery: status %d, want 200", resp.StatusCode)
	}

	st := srv.stats()
	if st.Degraded || st.BreakerOpens != 1 || st.WritesRejected != 1 ||
		st.BackendFaults < 3 || st.BackendProbes != 2 {
		t.Errorf("final stats = %+v", st)
	}
}

// TestDegradedProbeOncePerWindow proves concurrent health checks admit
// at most one backend probe per cooldown window.
func TestDegradedProbeOncePerWindow(t *testing.T) {
	srv, faults := faultServer(t, Options{Sessions: 1, BreakerThreshold: 1, BreakerCooldown: time.Minute})
	clock := time.Unix(5000, 0)
	srv.now = func() time.Time { return clock }
	h := srv.Handler()

	faults.SetConfig(history.FaultConfig{ErrRate: 1})
	doReq(t, h, http.MethodPut, "/api/v1/run", putBody)
	clock = clock.Add(2 * time.Minute)
	for i := 0; i < 5; i++ {
		doReq(t, h, http.MethodGet, "/healthz", "")
	}
	if n := srv.counts.backendProbes.Load(); n != 1 {
		t.Fatalf("probes = %d, want 1 per window", n)
	}
}

// TestDegradedWriteWaitsForTheProbe: a write refused while degraded is
// told the time to the next due probe — the failure that opens the
// breaker the whole cooldown — and a write arriving once the probe is
// due runs it and, on a healed backend, is admitted without a /healthz
// in between.
func TestDegradedWriteWaitsForTheProbe(t *testing.T) {
	srv, faults := faultServer(t, Options{Sessions: 1, BreakerThreshold: 1, BreakerCooldown: time.Minute})
	clock := time.Unix(5000, 0)
	srv.now = func() time.Time { return clock }
	h := srv.Handler()

	faults.SetConfig(history.FaultConfig{ErrRate: 1})
	resp, _ := doReq(t, h, http.MethodPut, "/api/v1/run", putBody)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After-Ms") != "60000" {
		t.Fatalf("the failing put that degrades: %d, Retry-After-Ms %q; want 503 and the minute to the probe",
			resp.StatusCode, resp.Header.Get("Retry-After-Ms"))
	}
	clock = clock.Add(20 * time.Second)
	resp, _ = doReq(t, h, http.MethodPut, "/api/v1/run", putBody)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After-Ms") != "40000" || resp.Header.Get("Retry-After") != "40" {
		t.Fatalf("degraded put 20s in: %d, Retry-After %q, Retry-After-Ms %q; want 503, 40 and 40000",
			resp.StatusCode, resp.Header.Get("Retry-After"), resp.Header.Get("Retry-After-Ms"))
	}
	faults.SetConfig(history.FaultConfig{})
	clock = clock.Add(40 * time.Second)
	if resp, _ := doReq(t, h, http.MethodPut, "/api/v1/run", putBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("put once the probe is due, backend healed: %d, want 200", resp.StatusCode)
	}
	st := srv.stats()
	if st.Degraded || st.BackendProbes != 1 || st.Refusals["backend"] != 1 || st.Refusals["degraded"] != 1 {
		t.Errorf("stats after the write's probe = degraded %v, probes %d, refusals %v; want healed by one probe, one refusal of each reason",
			st.Degraded, st.BackendProbes, st.Refusals)
	}
}

// TestSetRetryAfter: Retry-After rounds the wait up to whole seconds, at
// least one, and Retry-After-Ms carries it to the millisecond.
func TestSetRetryAfter(t *testing.T) {
	for _, c := range []struct {
		wait     time.Duration
		secs, ms string
	}{
		{0, "1", "1"},
		{300 * time.Microsecond, "1", "1"},
		{250 * time.Millisecond, "1", "250"},
		{1500 * time.Millisecond, "2", "1500"},
		{5 * time.Second, "5", "5000"},
	} {
		h := http.Header{}
		setRetryAfter(h, c.wait)
		if h.Get("Retry-After") != c.secs || h.Get("Retry-After-Ms") != c.ms {
			t.Errorf("wait %v: Retry-After %q, Retry-After-Ms %q; want %q, %q", c.wait, h.Get("Retry-After"), h.Get("Retry-After-Ms"), c.secs, c.ms)
		}
	}
}
