package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/harness"
	"repro/internal/history"
)

// TestDiagnoseBoundedBySessionPool proves the pool bounds sessions in
// flight across concurrent requests: six diagnoses under Sessions: 2
// never run more than two sessions at once, each runs one session, and
// all answer 200.
func TestDiagnoseBoundedBySessionPool(t *testing.T) {
	const requests, capacity = 6, 2
	srv := New(harness.NewEnv(nil), Options{Sessions: capacity})
	var calls, cur, high atomic.Int64
	srv.session = func(ctx context.Context, a *app.App, cfg harness.SessionConfig) (*harness.SessionResult, error) {
		n := cur.Add(1)
		defer cur.Add(-1)
		for h := high.Load(); n > h && !high.CompareAndSwap(h, n); h = high.Load() {
		}
		time.Sleep(5 * time.Millisecond)
		calls.Add(1)
		return &harness.SessionResult{Quiesced: true}, nil
	}
	h := srv.Handler()
	codes := make([]int, requests)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/diagnose", strings.NewReader(`{"app":"tester"}`)))
			codes[i] = w.Code
		}()
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("request %d: status %d, want 200", i, code)
		}
	}
	if got := high.Load(); got > capacity {
		t.Errorf("%d sessions in flight at once, pool holds %d", got, capacity)
	}
	if got := calls.Load(); got != requests {
		t.Errorf("%d sessions ran, want %d", got, requests)
	}
	if st := srv.stats(); st.TotalSessions != requests || st.LiveSessions != 0 {
		t.Errorf("stats = %+v, want %d sessions and no live session", st, requests)
	}
}

// TestDiagnoseFailingSessionRunsOnce proves a failing session is not
// re-run, whatever its error: a plain error answers 400, and a backend
// error — which a session, doing no I/O, cannot produce — is no cause
// to run it again either.
func TestDiagnoseFailingSessionRunsOnce(t *testing.T) {
	for _, fail := range []error{
		errors.New("bad config"),
		&history.BackendError{Op: "get", Err: errors.New("blip")},
	} {
		srv := New(harness.NewEnv(nil), Options{Sessions: 1})
		var calls atomic.Int64
		srv.session = func(ctx context.Context, a *app.App, cfg harness.SessionConfig) (*harness.SessionResult, error) {
			calls.Add(1)
			return nil, fail
		}
		resp, body := doReq(t, srv.Handler(), http.MethodPost, "/api/v1/diagnose", `{"app":"tester"}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("session error %v: status %d, body %v; want 400", fail, resp.StatusCode, body)
		}
		if calls.Load() != 1 {
			t.Errorf("session error %v: session ran %d times, want 1", fail, calls.Load())
		}
		if st := srv.stats(); st.TotalSessions != 1 || st.LiveSessions != 0 {
			t.Errorf("session error %v: stats = %+v, want one session and no live one", fail, st)
		}
	}
}

// TestDiagnoseSessionTimesOutWaitingForPool proves SessionTimeout bounds
// the wait for a slot: a request that finds the pool full past the
// timeout answers 504, and its session never starts.
func TestDiagnoseSessionTimesOutWaitingForPool(t *testing.T) {
	srv := New(harness.NewEnv(nil), Options{Sessions: 1, SessionTimeout: 50 * time.Millisecond})
	var calls atomic.Int64
	srv.session = func(ctx context.Context, a *app.App, cfg harness.SessionConfig) (*harness.SessionResult, error) {
		calls.Add(1)
		return &harness.SessionResult{Quiesced: true}, nil
	}
	if err := srv.pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, body := doReq(t, srv.Handler(), http.MethodPost, "/api/v1/diagnose", `{"app":"tester"}`)
	srv.pool.Release()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("diagnose behind a full pool: status %d, body %v; want 504", resp.StatusCode, body)
	}
	if calls.Load() != 0 {
		t.Errorf("session ran %d times, want 0", calls.Load())
	}
	if st := srv.stats(); st.TotalSessions != 1 || st.LiveSessions != 0 {
		t.Errorf("stats = %+v, want only the holder's slot granted and none live", st)
	}
}

// TestDiagnoseDeadContextStartsNoSession proves a done context starts no
// session, even with a slot free, and takes no slot.
func TestDiagnoseDeadContextStartsNoSession(t *testing.T) {
	srv := New(harness.NewEnv(nil), Options{Sessions: 3})
	var calls atomic.Int64
	srv.session = func(ctx context.Context, a *app.App, cfg harness.SessionConfig) (*harness.SessionResult, error) {
		calls.Add(1)
		return &harness.SessionResult{Quiesced: true}, nil
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 20; i++ {
		if resp, err := srv.runDiagnose(dead, &DiagnoseRequest{App: "tester"}); !errors.Is(err, context.Canceled) || resp != nil {
			t.Fatalf("diagnose under a done context = %+v, %v; want no response and context.Canceled", resp, err)
		}
	}
	if calls.Load() != 0 {
		t.Errorf("%d sessions started under a done context", calls.Load())
	}
	if st := srv.stats(); st.TotalSessions != 0 || st.LiveSessions != 0 {
		t.Errorf("stats = %+v, want no session admitted", st)
	}
}

// TestSessionPoolAcquireCancellation proves an Acquire queued behind a
// full pool gives up with its context's error and takes no slot, so
// the slot its holder releases is free for the next session.
func TestSessionPoolAcquireCancellation(t *testing.T) {
	p := newSessionPool(1)
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatalf("holder: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Acquire(ctx) }()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued Acquire = %v, want context.Canceled", err)
	}
	p.Release()
	if got := p.live.Load(); got != 0 {
		t.Fatalf("%d slots live after the holder released, want 0", got)
	}
	acquired := make(chan error, 1)
	go func() { acquired <- p.Acquire(context.Background()) }()
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatalf("after release: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the released slot was not free: a fresh Acquire blocked")
	}
	p.Release()
	if got := p.total.Load(); got != 2 {
		t.Errorf("%d slots granted, want 2 (the cancelled wait took none)", got)
	}
}

// TestSessionTimeoutLetsStartedSessionFinish proves SessionTimeout bounds
// only the wait for a slot: a session that outlives the timeout once
// started still answers 200.
func TestSessionTimeoutLetsStartedSessionFinish(t *testing.T) {
	srv := New(harness.NewEnv(nil), Options{Sessions: 1, SessionTimeout: 20 * time.Millisecond})
	srv.session = func(ctx context.Context, a *app.App, cfg harness.SessionConfig) (*harness.SessionResult, error) {
		time.Sleep(60 * time.Millisecond)
		return runHarnessSession(ctx, a, cfg)
	}
	resp, body := doReq(t, srv.Handler(), http.MethodPost, "/api/v1/diagnose", `{"app":"tester","max_time":2000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session past its timeout: status %d, body %v; want 200", resp.StatusCode, body)
	}
}
