package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/history"
	"repro/internal/ingest"
	"repro/internal/server"
)

// seededClient returns a client whose jitter is deterministic and whose
// backoff sleeps are recorded instead of slept.
func seededClient(url string, retries int) (*Client, *[]time.Duration) {
	c := New(url)
	c.Retry = RetryPolicy{Retries: retries, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
	rng := rand.New(rand.NewSource(1))
	c.Rand = rng.Float64
	slept := &[]time.Duration{}
	c.sleep = func(ctx context.Context, d time.Duration) error {
		*slept = append(*slept, d)
		return ctx.Err()
	}
	return c, slept
}

// flaky returns a handler that fails the first n requests with status
// and then delegates to ok.
func flaky(n int, status int, retryAfter string, ok http.HandlerFunc) (http.HandlerFunc, *atomic.Int64) {
	var calls atomic.Int64
	return func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= int64(n) {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(status)
			fmt.Fprint(w, `{"error":"injected"}`)
			return
		}
		ok(w, r)
	}, &calls
}

func okJSON(body string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, body)
	}
}

// TestRetryIdempotentRecovers proves an idempotent request rides out
// transient 503s: three failures, then success, within a 3-retry
// budget... and the counters record the work.
func TestRetryIdempotentRecovers(t *testing.T) {
	h, calls := flaky(3, http.StatusServiceUnavailable, "", okJSON(`{"status":"ok"}`))
	ts := httptest.NewServer(h)
	defer ts.Close()

	c, slept := seededClient(ts.URL, 3)
	st, err := c.Health(context.Background())
	if err != nil || st != "ok" {
		t.Fatalf("Health = %q, %v, want ok after retries", st, err)
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("server saw %d attempts, want 4", got)
	}
	if len(*slept) != 3 {
		t.Errorf("client slept %d times, want 3", len(*slept))
	}
	// Exponential shape: each nominal delay doubles; with jitter in
	// [d/2, d) every recorded sleep stays under the cap and grows.
	for i, d := range *slept {
		if d <= 0 || d > 80*time.Millisecond {
			t.Errorf("sleep %d = %v, outside (0, cap]", i, d)
		}
	}
	if got := c.CounterSnapshot(); got.Retries != 3 || got.Requests != 4 {
		t.Errorf("counters = %+v, want 3 retries / 4 requests", got)
	}
}

// TestRetryExhaustion proves a persistent failure surfaces after the
// budget, still unwrapping to ErrUnavailable.
func TestRetryExhaustion(t *testing.T) {
	h, calls := flaky(100, http.StatusServiceUnavailable, "", okJSON(`{}`))
	ts := httptest.NewServer(h)
	defer ts.Close()

	c, _ := seededClient(ts.URL, 2)
	_, err := c.Health(context.Background())
	if err == nil {
		t.Fatal("Health against a dead server succeeded")
	}
	if !errors.Is(err, ErrUnavailable) {
		t.Errorf("exhausted error %v does not unwrap to ErrUnavailable", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3 (1 + 2 retries)", got)
	}
}

// TestNoRetryOnWrites proves PutRun and Diagnose are never retried even
// with a generous budget: a lost response could mean the work happened.
func TestNoRetryOnWrites(t *testing.T) {
	h, calls := flaky(100, http.StatusServiceUnavailable, "", okJSON(`{}`))
	ts := httptest.NewServer(h)
	defer ts.Close()

	c, slept := seededClient(ts.URL, 5)
	_, err := c.Diagnose(context.Background(), nil)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Diagnose error = %v, want ErrUnavailable", err)
	}
	if err := c.DeleteRun(context.Background(), "a", "v:r"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("DeleteRun error = %v, want ErrUnavailable", err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("server saw %d attempts, want 2 (no retries)", got)
	}
	if len(*slept) != 0 {
		t.Errorf("write path slept %d times, want 0", len(*slept))
	}
}

// TestNoRetryOnFinal4xx proves a deliberate server answer (400, 404) is
// never retried — only transport trouble and 429/502/503/504 are.
func TestNoRetryOnFinal4xx(t *testing.T) {
	h, calls := flaky(100, http.StatusBadRequest, "", okJSON(`{}`))
	ts := httptest.NewServer(h)
	defer ts.Close()

	c, _ := seededClient(ts.URL, 5)
	_, err := c.Health(context.Background())
	var se *StatusError
	if !errors.As(err, &se) || se.Status != 400 {
		t.Fatalf("error = %v, want 400 StatusError", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("400 was retried: %d attempts", got)
	}
}

// TestRetryAfterIsBackoffFloor proves a server-sent Retry-After raises
// the computed backoff.
func TestRetryAfterIsBackoffFloor(t *testing.T) {
	h, _ := flaky(1, http.StatusServiceUnavailable, "2", okJSON(`{"status":"ok"}`))
	ts := httptest.NewServer(h)
	defer ts.Close()

	c, slept := seededClient(ts.URL, 1)
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(*slept) != 1 || (*slept)[0] < 2*time.Second {
		t.Errorf("slept %v, want >= 2s from Retry-After", *slept)
	}
}

// TestRetryAfter429IngestBackpressure is the regression test for the
// 429 gap: an ingest endpoint answering 429 + Retry-After (stream busy,
// full queue) must floor the backoff and unwrap to ErrUnavailable
// exactly like a 503 — previously only 503 got the floor treatment
// through the typed-error path.
func TestRetryAfter429IngestBackpressure(t *testing.T) {
	h, calls := flaky(1, http.StatusTooManyRequests, "2",
		okJSON(`{"accepted":3,"queued":0,"steps":0,"true_count":0}`))
	ts := httptest.NewServer(h)
	defer ts.Close()

	c, slept := seededClient(ts.URL, 1)
	resp, err := c.IngestSamples(context.Background(), &ingest.SamplesRequest{
		App: "poisson", RunID: "r1", Seq: 1,
		Samples: []ingest.Sample{{Proc: "p1", Node: "n1", Kind: "cpu", Start: 0, End: 1}},
	})
	if err != nil || resp.Accepted != 3 {
		t.Fatalf("IngestSamples = %+v, %v, want success after one 429 retry", resp, err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("server saw %d attempts, want 2", got)
	}
	if len(*slept) != 1 || (*slept)[0] < 2*time.Second {
		t.Errorf("slept %v, want >= 2s from the 429's Retry-After", *slept)
	}

	// And an exhausted 429 budget surfaces as ErrUnavailable.
	h2, _ := flaky(100, http.StatusTooManyRequests, "1", okJSON(`{}`))
	ts2 := httptest.NewServer(h2)
	defer ts2.Close()
	c2, _ := seededClient(ts2.URL, 1)
	_, err = c2.IngestSamples(context.Background(), &ingest.SamplesRequest{
		App: "poisson", RunID: "r1", Seq: 1,
		Samples: []ingest.Sample{{Proc: "p1", Node: "n1", Kind: "cpu", Start: 0, End: 1}},
	})
	if !errors.Is(err, ErrUnavailable) {
		t.Errorf("exhausted 429 error %v does not unwrap to ErrUnavailable", err)
	}
}

// TestRefusalRetriedAfterServerCooldown: pcd refuses a batch put with
// 503 under a 250 ms breaker cooldown (its write gate says no once), and
// the client's resend reaches it after the cooldown, not after the whole
// second Retry-After rounds it up to.
func TestRefusalRetriedAfterServerCooldown(t *testing.T) {
	var calls []time.Time
	var mu sync.Mutex
	srv := server.New(harness.NewEnv(nil), server.Options{
		Sessions:        1,
		BreakerCooldown: 250 * time.Millisecond,
		WriteGate: func(app, version string) error {
			mu.Lock()
			defer mu.Unlock()
			if calls = append(calls, time.Now()); len(calls) == 1 {
				return errors.New("not writable yet")
			}
			return nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := New(ts.URL)
	c.Retry = RetryPolicy{Retries: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond}
	rec := &history.RunRecord{App: "poisson", Version: "C", RunID: "r1"}
	if _, err := c.PutRuns(context.Background(), []*history.RunRecord{rec}); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 {
		t.Fatalf("the write gate saw %d attempts, want a refusal and its retry", len(calls))
	}
	if gap := calls[1].Sub(calls[0]); gap < 250*time.Millisecond || gap >= 500*time.Millisecond {
		t.Errorf("the retry came %v after the refusal, want the 250ms cooldown (at least it, under 500ms)", gap)
	}
}

// TestRetryHonorsContext proves an expired context stops the loop
// between attempts with the context's error.
func TestRetryHonorsContext(t *testing.T) {
	h, calls := flaky(100, http.StatusServiceUnavailable, "", okJSON(`{}`))
	ts := httptest.NewServer(h)
	defer ts.Close()

	c, _ := seededClient(ts.URL, 5)
	ctx, cancel := context.WithCancel(context.Background())
	c.sleep = func(ctx context.Context, d time.Duration) error {
		cancel() // the deadline passes while waiting to retry
		return ctx.Err()
	}
	_, err := c.Health(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d attempts after cancellation, want 1", got)
	}
}

// TestBreakerOpensAndRecovers walks the breaker through its life cycle:
// closed → open after Threshold consecutive failures (fail-fast, no
// network) → half-open probe after the cooldown → closed on success.
func TestBreakerOpensAndRecovers(t *testing.T) {
	h, calls := flaky(3, http.StatusServiceUnavailable, "", okJSON(`{"status":"ok"}`))
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := New(ts.URL)
	c.Breaker = BreakerPolicy{Threshold: 3, Cooldown: time.Minute}
	clock := time.Unix(1000, 0)
	c.now = func() time.Time { return clock }

	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := c.Health(ctx); err == nil {
			t.Fatalf("attempt %d unexpectedly succeeded", i)
		}
	}
	if got := c.CounterSnapshot(); got.BreakerOpens != 1 {
		t.Fatalf("counters after 3 failures = %+v, want 1 breaker open", got)
	}

	// Open: calls fail fast without touching the server.
	before := calls.Load()
	_, err := c.Health(ctx)
	if !errors.Is(err, ErrBreakerOpen) || !errors.Is(err, ErrUnavailable) {
		t.Fatalf("open-breaker error = %v, want ErrBreakerOpen wrapping ErrUnavailable", err)
	}
	if calls.Load() != before {
		t.Error("open breaker let a request through")
	}

	// After the cooldown the next call probes; the server has healed, so
	// the breaker closes and stays closed.
	clock = clock.Add(2 * time.Minute)
	if st, err := c.Health(ctx); err != nil || st != "ok" {
		t.Fatalf("probe = %q, %v, want ok", st, err)
	}
	if st, err := c.Health(ctx); err != nil || st != "ok" {
		t.Fatalf("post-recovery call = %q, %v, want ok", st, err)
	}
	if got := c.CounterSnapshot(); got.BreakerRejects == 0 {
		t.Errorf("counters = %+v, want breaker rejects recorded", got)
	}
}

// TestBreakerReopensOnFailedProbe proves a failed half-open probe slams
// the breaker shut for another cooldown.
func TestBreakerReopensOnFailedProbe(t *testing.T) {
	h, calls := flaky(100, http.StatusServiceUnavailable, "", okJSON(`{}`))
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := New(ts.URL)
	c.Breaker = BreakerPolicy{Threshold: 2, Cooldown: time.Minute}
	clock := time.Unix(1000, 0)
	c.now = func() time.Time { return clock }

	ctx := context.Background()
	c.Health(ctx)
	c.Health(ctx) // opens
	clock = clock.Add(90 * time.Second)
	before := calls.Load()
	c.Health(ctx) // probe, fails
	if calls.Load() != before+1 {
		t.Fatal("half-open did not admit exactly one probe")
	}
	// Still within the renewed cooldown: fail fast again.
	clock = clock.Add(30 * time.Second)
	if _, err := c.Health(ctx); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("error after failed probe = %v, want ErrBreakerOpen", err)
	}
	if calls.Load() != before+1 {
		t.Error("failed probe did not re-open the breaker")
	}
}

// TestErrUnavailableMapping pins the "retry later" statuses: 503 and
// 429 are typed, distinguishable errors; other statuses are not.
func TestErrUnavailableMapping(t *testing.T) {
	for status, want := range map[int]bool{
		http.StatusServiceUnavailable:  true,
		http.StatusTooManyRequests:     true,
		http.StatusInternalServerError: false,
		http.StatusBadRequest:          false,
		http.StatusNotFound:            false,
	} {
		err := (&StatusError{Status: status, Message: "x"})
		if got := errors.Is(err, ErrUnavailable); got != want {
			t.Errorf("errors.Is(%d, ErrUnavailable) = %v, want %v", status, got, want)
		}
	}
}
