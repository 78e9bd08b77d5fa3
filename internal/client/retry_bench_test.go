package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/breaker"
)

// The resilience benchmarks measure what the retry/breaker machinery
// costs on each path: nothing configured, the full resilient stack on
// the happy path (the delta is the wrapper's overhead), the retry loop
// actually absorbing failures, and the open breaker's fail-fast path
// (which must be far cheaper than a network round trip).

func benchServer(fail func(n int) bool) *httptest.Server {
	n := 0
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n++
		if fail != nil && fail(n) {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"injected"}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok"}`))
	}))
}

// BenchmarkResilienceDirect is the baseline: no retries, no breaker.
func BenchmarkResilienceDirect(b *testing.B) {
	ts := benchServer(nil)
	defer ts.Close()
	c := New(ts.URL)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Health(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResilienceHappyPath is the full resilient client on a
// healthy server: the delta against Direct is the per-request cost of
// the retry loop and breaker bookkeeping.
func BenchmarkResilienceHappyPath(b *testing.B) {
	ts := benchServer(nil)
	defer ts.Close()
	c := NewResilient(ts.URL, 3)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Health(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResilienceRetryRecovery makes every other request fail with
// a 503, so each op pays one failed round trip plus one retry (backoff
// sleep stubbed out — the benchmark measures machinery, not waiting).
func BenchmarkResilienceRetryRecovery(b *testing.B) {
	ts := benchServer(func(n int) bool { return n%2 == 1 })
	defer ts.Close()
	c := NewResilient(ts.URL, 3)
	c.Breaker = BreakerPolicy{} // isolate the retry path
	c.sleep = func(ctx context.Context, d time.Duration) error { return ctx.Err() }
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Health(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResilienceBreakerOpen measures the fail-fast path: the
// breaker is pinned open, so no request touches the network.
func BenchmarkResilienceBreakerOpen(b *testing.B) {
	ts := benchServer(nil)
	defer ts.Close()
	c := New(ts.URL)
	c.Breaker = BreakerPolicy{Threshold: 1, Cooldown: time.Hour}
	c.brk.Failure(breaker.Policy(c.Breaker), time.Now())
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Health(ctx); err == nil {
			b.Fatal("open breaker let a request through")
		}
	}
}
