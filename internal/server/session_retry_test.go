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

// errBlip is a transient session failure: the retry loop re-runs it.
var errBlip = &history.BackendError{Op: "get", Err: errors.New("blip")}

// TestDiagnoseRetryBoundedBySessionPool proves the pool bounds sessions
// in flight across concurrent requests, re-runs included: six
// diagnoses whose sessions fail transiently six times between them,
// under Sessions: 2, never run more than two sessions at once and all
// answer 200.
func TestDiagnoseRetryBoundedBySessionPool(t *testing.T) {
	const requests, capacity = 6, 2
	srv := New(harness.NewEnv(nil), Options{Sessions: capacity, SessionRetries: requests})
	var calls, cur, high atomic.Int64
	srv.session = func(ctx context.Context, a *app.App, cfg harness.SessionConfig) (*harness.SessionResult, error) {
		n := cur.Add(1)
		defer cur.Add(-1)
		for h := high.Load(); n > h && !high.CompareAndSwap(h, n); h = high.Load() {
		}
		time.Sleep(5 * time.Millisecond)
		if calls.Add(1) <= requests {
			return nil, errBlip
		}
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
	if got := calls.Load(); got != 2*requests {
		t.Errorf("%d sessions ran, want %d", got, 2*requests)
	}
	if st := srv.stats(); st.SessionRetries != requests || st.LiveSessions != 0 {
		t.Errorf("stats = %+v, want %d session retries and no live session", st, requests)
	}
}

// TestDiagnoseRetrySkipsFinalError proves a session error that is not
// transient runs once, answers 400 and counts no retry.
func TestDiagnoseRetrySkipsFinalError(t *testing.T) {
	srv := New(harness.NewEnv(nil), Options{Sessions: 1, SessionRetries: 5})
	var calls atomic.Int64
	srv.session = func(ctx context.Context, a *app.App, cfg harness.SessionConfig) (*harness.SessionResult, error) {
		calls.Add(1)
		return nil, errors.New("bad config")
	}
	resp, body := doReq(t, srv.Handler(), http.MethodPost, "/api/v1/diagnose", `{"app":"tester"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("final session error: status %d, body %v; want 400", resp.StatusCode, body)
	}
	if calls.Load() != 1 {
		t.Errorf("session ran %d times, want 1", calls.Load())
	}
	if st := srv.stats(); st.SessionRetries != 0 {
		t.Errorf("stats = %+v, want no session retry", st)
	}
}

// TestDiagnoseRetryTimesOutWaitingForPool proves SessionTimeout bounds a
// retry's wait for a slot: a transient failure whose re-run finds the
// pool full past the timeout answers 504, and the second session never
// starts.
func TestDiagnoseRetryTimesOutWaitingForPool(t *testing.T) {
	srv := New(harness.NewEnv(nil), Options{Sessions: 1, SessionRetries: 3, SessionTimeout: 150 * time.Millisecond})
	taken := make(chan struct{})
	var calls atomic.Int64
	srv.session = func(ctx context.Context, a *app.App, cfg harness.SessionConfig) (*harness.SessionResult, error) {
		if calls.Add(1) > 1 {
			return &harness.SessionResult{Quiesced: true}, nil
		}
		// Queue another holder behind this session's slot: a sender
		// parked on the full pool is handed the slot by the release,
		// ahead of the retry. Parking is not observable, so the session
		// gives the holder's Acquire a moment to reach it.
		started := make(chan struct{})
		go func() {
			close(started)
			if err := srv.pool.Acquire(context.Background()); err == nil {
				close(taken)
			}
		}()
		<-started
		time.Sleep(30 * time.Millisecond)
		return nil, errBlip
	}
	resp, body := doReq(t, srv.Handler(), http.MethodPost, "/api/v1/diagnose", `{"app":"tester"}`)
	<-taken
	srv.pool.Release()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("retry behind a full pool: status %d, body %v; want 504", resp.StatusCode, body)
	}
	if calls.Load() != 1 {
		t.Errorf("session ran %d times, want 1", calls.Load())
	}
	if st := srv.stats(); st.SessionRetries != 1 {
		t.Errorf("stats = %+v, want 1 session retry", st)
	}
}

// TestDiagnoseRetryDeadContextStartsNoSession proves a done context
// starts no session, even with a slot free, and takes no slot.
func TestDiagnoseRetryDeadContextStartsNoSession(t *testing.T) {
	srv := New(harness.NewEnv(nil), Options{Sessions: 3, SessionRetries: 10})
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
	if st := srv.stats(); st.TotalSessions != 0 || st.LiveSessions != 0 || st.SessionRetries != 0 {
		t.Errorf("stats = %+v, want no session admitted and no retry", st)
	}
}

// TestDiagnoseRetryStopsOnDeadContext proves a session failing
// transiently after its context died is not re-run: the budget is not
// burnt against a dead clock.
func TestDiagnoseRetryStopsOnDeadContext(t *testing.T) {
	srv := New(harness.NewEnv(nil), Options{Sessions: 1, SessionRetries: 10})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	srv.session = func(ctx context.Context, a *app.App, cfg harness.SessionConfig) (*harness.SessionResult, error) {
		calls.Add(1)
		cancel()
		return nil, errBlip
	}
	var unavailable *unavailableError
	if _, err := srv.runDiagnose(ctx, &DiagnoseRequest{App: "tester"}); !errors.As(err, &unavailable) {
		t.Fatalf("transient failure after cancel = %v, want the unavailable error", err)
	}
	if calls.Load() != 1 {
		t.Errorf("session ran %d times after its context died, want 1", calls.Load())
	}
	if st := srv.stats(); st.SessionRetries != 0 {
		t.Errorf("stats = %+v, want no session retry", st)
	}
}

// TestDiagnoseRetryRecoversEachRequest proves concurrent diagnoses that
// fail transiently recover independently: each request gets its own
// session's result back, and every re-run is counted.
func TestDiagnoseRetryRecoversEachRequest(t *testing.T) {
	srv := New(harness.NewEnv(nil), Options{Sessions: 2, SessionRetries: 3})
	failures := map[string]int64{"r0": 0, "r1": 2, "r2": 0, "r3": 1}
	var mu sync.Mutex
	runs := map[string]int64{}
	srv.session = func(ctx context.Context, a *app.App, cfg harness.SessionConfig) (*harness.SessionResult, error) {
		mu.Lock()
		runs[cfg.RunID]++
		n := runs[cfg.RunID]
		mu.Unlock()
		if n <= failures[cfg.RunID] {
			return nil, errBlip
		}
		return &harness.SessionResult{Quiesced: true, EndTime: float64(cfg.RunID[1] - '0')}, nil
	}
	resps := make([]*DiagnoseResponse, len(failures))
	errs := make([]error, len(failures))
	var wg sync.WaitGroup
	for i := range resps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := &DiagnoseRequest{App: "tester", RunID: "r" + string(rune('0'+i))}
			resps[i], errs[i] = srv.runDiagnose(context.Background(), req)
		}()
	}
	wg.Wait()
	for i, resp := range resps {
		if errs[i] != nil {
			t.Fatalf("request %d: %v, want recovery", i, errs[i])
		}
		if resp.RunID != "r"+string(rune('0'+i)) || resp.EndTime != float64(i) {
			t.Errorf("request %d got %+v, want its own session's result", i, resp)
		}
	}
	for id, fails := range failures {
		if runs[id] != fails+1 {
			t.Errorf("%s ran %d sessions, want %d", id, runs[id], fails+1)
		}
	}
	if st := srv.stats(); st.SessionRetries != 3 || st.LiveSessions != 0 {
		t.Errorf("stats = %+v, want 3 session retries and no live session", st)
	}
}

// TestDiagnoseRetryExhaustsBudget proves a transient fault outlasting
// the budget runs exactly SessionRetries re-runs, leaves no result and
// returns the session's own transient error.
func TestDiagnoseRetryExhaustsBudget(t *testing.T) {
	srv := New(harness.NewEnv(nil), Options{Sessions: 1, SessionRetries: 2})
	var calls atomic.Int64
	srv.session = func(ctx context.Context, a *app.App, cfg harness.SessionConfig) (*harness.SessionResult, error) {
		calls.Add(1)
		return nil, errBlip
	}
	a, cfg, err := srv.diagnoseSession(&DiagnoseRequest{App: "tester"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.runSession(context.Background(), a, cfg)
	if !errors.Is(err, errBlip) || !history.IsTransient(err) {
		t.Fatalf("exhausted retries = %v, want the session's transient error", err)
	}
	if res != nil {
		t.Errorf("failed session left a result: %+v", res)
	}
	if calls.Load() != 3 {
		t.Errorf("session ran %d times, want 3", calls.Load())
	}
	if st := srv.stats(); st.SessionRetries != 2 || st.LiveSessions != 0 {
		t.Errorf("stats = %+v, want 2 session retries and no live session", st)
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
