package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/harness"
)

// newLifecycleServer returns a server over an in-memory store whose
// diagnosis execution blocks until release is closed — the seam the
// lifecycle tests need to observe in-flight state deterministically.
func newLifecycleServer(opts Options, release <-chan struct{}) *Server {
	s := New(harness.NewEnv(nil), opts)
	s.session = func(ctx context.Context, a *app.App, cfg harness.SessionConfig) (*harness.SessionResult, error) {
		select {
		case <-release:
			return &harness.SessionResult{Quiesced: true}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s
}

func postDiagnose(t *testing.T, url string) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/api/v1/diagnose",
		strings.NewReader(`{"app":"tester"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	return http.DefaultClient.Do(req)
}

// waitFor polls cond for up to ~2s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestGracefulShutdownDrainsInflight proves the drain path: an
// in-flight diagnosis completes with 200, new diagnoses are refused
// with 503, health reports draining, and Drain returns only after the
// in-flight request finished.
func TestGracefulShutdownDrainsInflight(t *testing.T) {
	release := make(chan struct{})
	srv := newLifecycleServer(Options{Sessions: 2}, release)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type result struct {
		status int
		err    error
	}
	first := make(chan result, 1)
	go func() {
		resp, err := postDiagnose(t, ts.URL)
		if err != nil {
			first <- result{0, err}
			return
		}
		resp.Body.Close()
		first <- result{resp.StatusCode, nil}
	}()
	waitFor(t, "diagnosis in flight", func() bool { return srv.stats().ActiveDiagnoses == 1 })

	srv.BeginDrain()

	// New diagnoses are refused while draining.
	resp, err := postDiagnose(t, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("diagnose while draining: status %d, want 503", resp.StatusCode)
	}

	// Health reports the drain.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()

	// Drain must not complete while the first request is in flight.
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	r := <-first
	if r.err != nil {
		t.Fatalf("in-flight diagnose: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight diagnose finished with %d, want 200", r.status)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := srv.stats(); !got.Draining || got.ActiveDiagnoses != 0 {
		t.Fatalf("post-drain stats: %+v", got)
	}
}

// TestDrainDeadline proves Drain gives up when its context expires
// while work is still in flight.
func TestDrainDeadline(t *testing.T) {
	release := make(chan struct{})
	srv := newLifecycleServer(Options{Sessions: 1}, release)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		resp, err := postDiagnose(t, ts.URL)
		if err == nil {
			resp.Body.Close()
		}
		close(done)
	}()
	waitFor(t, "diagnosis in flight", func() bool { return srv.stats().ActiveDiagnoses == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown error = %v, want DeadlineExceeded", err)
	}
	close(release)
	<-done
}

// TestQueuedDiagnosisCancelledOnDisconnect proves a diagnosis queued
// behind a full session pool fails with the request context's error
// when the client goes away, and the pool slot ends up free.
func TestQueuedDiagnosisCancelledOnDisconnect(t *testing.T) {
	srv := New(harness.NewEnv(nil), Options{Sessions: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the only session slot directly.
	if err := srv.pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			ts.URL+"/api/v1/diagnose", strings.NewReader(`{"app":"tester","max_time":2000}`))
		if err != nil {
			errc <- err
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			errc <- nil
			return
		}
		errc <- err
	}()
	waitFor(t, "diagnose request in flight", func() bool { return srv.stats().ActiveDiagnoses == 1 })

	cancel()
	err := <-errc
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request error = %v, want context.Canceled", err)
	}
	waitFor(t, "request retired", func() bool { return srv.stats().ActiveDiagnoses == 0 })

	// The slot the queued job never got must still be usable.
	srv.pool.Release()
	resp, err := postDiagnose(t, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diagnose after release: status %d, want 200", resp.StatusCode)
	}
}

// TestSessionTimeout proves the server-side per-request bound: a
// diagnosis that cannot get a slot within SessionTimeout fails with
// 504.
func TestSessionTimeout(t *testing.T) {
	srv := New(harness.NewEnv(nil), Options{Sessions: 1, SessionTimeout: 30 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := srv.pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer srv.pool.Release()

	resp, err := postDiagnose(t, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out diagnose: status %d, want 504", resp.StatusCode)
	}
}
