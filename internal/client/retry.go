package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
)

// ErrUnavailable is the typed form of a 503: the server exists but is
// refusing work right now (draining, degraded store, full queue).
// Callers distinguish it from fatal errors with errors.Is and decide to
// back off instead of giving up.
var ErrUnavailable = errors.New("server unavailable")

// ErrBreakerOpen is returned without touching the network while the
// client's circuit breaker is open: enough consecutive failures have
// been seen that hammering the server would only make the outage worse.
var ErrBreakerOpen = errors.New("circuit breaker open")

// ErrFenced is the typed form of a 409 from a replica that has been
// fenced by a newer epoch: the node answered deliberately, the request
// was refused permanently, and retrying it there can never succeed —
// the caller must repoint at the current primary.
var ErrFenced = errors.New("fenced by a newer primary")

// TransportError is a request that never produced an HTTP status: the
// dial was refused, the connection reset mid-exchange, the response
// body was cut short. The server may be down, restarting, or mid
// failover — all "come back later" conditions — so it matches
// ErrUnavailable under errors.Is while still unwrapping to the
// underlying network error. Context expiry is NOT a TransportError:
// the caller gave up, the server didn't.
type TransportError struct{ Err error }

func (e *TransportError) Error() string { return "client: " + e.Err.Error() }

func (e *TransportError) Unwrap() error { return e.Err }

// Is reports ErrUnavailable so callers treat a dead socket like a 503.
func (e *TransportError) Is(target error) bool { return target == ErrUnavailable }

// RetryPolicy bounds the client's retry loop for idempotent requests.
// The zero value disables retries (one attempt per call).
type RetryPolicy struct {
	// Retries is how many times a failed idempotent request is retried
	// after the first attempt.
	Retries int
	// BaseDelay is the first backoff; it doubles per retry up to
	// MaxDelay, with jitter. Defaults: 50ms base, 2s cap.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// DefaultRetryPolicy is the policy the CLI tools use for -retries N.
func DefaultRetryPolicy(retries int) RetryPolicy {
	return RetryPolicy{Retries: retries, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}
}

// BreakerPolicy configures the per-client circuit breaker. The zero
// value disables it.
type BreakerPolicy struct {
	// Threshold is the number of consecutive transport/5xx failures that
	// opens the breaker; 0 disables the breaker entirely.
	Threshold int
	// Cooldown is how long the breaker stays open before admitting a
	// probe request (default 5s).
	Cooldown time.Duration
}

// DefaultBreakerPolicy trips after 5 consecutive failures and probes
// every 5 seconds.
func DefaultBreakerPolicy() BreakerPolicy {
	return BreakerPolicy{Threshold: 5, Cooldown: 5 * time.Second}
}

// Counters snapshots the client's resilience counters.
type Counters struct {
	// Requests counts HTTP attempts actually sent (retries included).
	Requests uint64 `json:"requests"`
	// Retries counts re-attempts of idempotent requests.
	Retries uint64 `json:"retries"`
	// BreakerOpens counts open transitions; BreakerRejects counts calls
	// refused without touching the network.
	BreakerOpens   uint64 `json:"breaker_opens"`
	BreakerRejects uint64 `json:"breaker_rejects"`
}

// counters is the atomic backing store for Counters.
type counters struct {
	requests       atomic.Uint64
	retries        atomic.Uint64
	breakerOpens   atomic.Uint64
	breakerRejects atomic.Uint64
}

func (p RetryPolicy) base() time.Duration {
	if p.BaseDelay > 0 {
		return p.BaseDelay
	}
	return 50 * time.Millisecond
}

func (p RetryPolicy) max() time.Duration {
	if p.MaxDelay > 0 {
		return p.MaxDelay
	}
	return 2 * time.Second
}

// retryable reports whether err is worth another attempt: transport
// failures and 429/502/503/504 responses. Context expiry and every
// other HTTP status (the server answered deliberately) are final.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		switch se.Status {
		case http.StatusTooManyRequests, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	// No status: the request never completed (dial, reset, truncated
	// body). Treat as transient.
	return true
}

// breakerCounts reports whether err should count against the breaker:
// like retryable, but a final 4xx/2xx decode error proves the server is
// alive and resets the failure streak instead.
func breakerCounts(err error) bool {
	if err == nil {
		return false
	}
	return retryable(err)
}

// backoff computes the jittered exponential delay before retry number
// attempt (0-based), honoring a server-sent Retry-After as the floor.
func (c *Client) backoff(p RetryPolicy, attempt int, last error) time.Duration {
	d := p.base() << attempt
	if d > p.max() || d <= 0 {
		d = p.max()
	}
	// Full jitter over [d/2, d): spreads synchronized retriers without
	// ever returning a zero sleep.
	d = d/2 + time.Duration(c.randFloat()*float64(d/2))
	var se *StatusError
	if errors.As(last, &se) && se.RetryAfter > d {
		d = se.RetryAfter
	}
	return d
}

// randFloat draws retry jitter, via the test seam when set.
func (c *Client) randFloat() float64 {
	if c.Rand != nil {
		return c.Rand()
	}
	return rand.Float64()
}

// sleepCtx waits d, returning early with the context's error.
func (c *Client) sleepCtx(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *Client) clock() time.Time {
	if c.now != nil {
		return c.now()
	}
	return time.Now()
}

// CounterSnapshot returns the client's resilience counters.
func (c *Client) CounterSnapshot() Counters {
	return Counters{
		Requests:       c.counts.requests.Load(),
		Retries:        c.counts.retries.Load(),
		BreakerOpens:   c.counts.breakerOpens.Load(),
		BreakerRejects: c.counts.breakerRejects.Load(),
	}
}

// send runs the retry/breaker loop around one logical request.
// idempotent requests may be retried per c.Retry; writes and diagnosis
// submissions are never retried — a lost response could mean the work
// happened, and re-submitting is the caller's decision to make.
func (c *Client) send(ctx context.Context, idempotent bool, once func() ([]byte, error)) ([]byte, error) {
	attempts := 1
	if idempotent && c.Retry.Retries > 0 {
		attempts += c.Retry.Retries
	}
	var last error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.counts.retries.Add(1)
			if err := c.sleepCtx(ctx, c.backoff(c.Retry, attempt-1, last)); err != nil {
				return nil, fmt.Errorf("client: retry wait: %w", err)
			}
		}
		if c.Breaker.Threshold > 0 {
			ok, wait := c.brk.Allow(breaker.Policy(c.Breaker), c.clock())
			if !ok {
				c.counts.breakerRejects.Add(1)
				last = fmt.Errorf("client: %w (retry in %s): %w", ErrBreakerOpen, wait.Round(time.Millisecond), ErrUnavailable)
				continue
			}
		}
		c.counts.requests.Add(1)
		data, err := once()
		// Only failures that look like server or transport trouble count;
		// a well-formed 4xx means the server answered and closes the loop.
		if c.Breaker.Threshold > 0 {
			if !breakerCounts(err) {
				c.brk.Success()
			} else if c.brk.Failure(breaker.Policy(c.Breaker), c.clock()) {
				c.counts.breakerOpens.Add(1)
			}
		}
		if err == nil {
			return data, nil
		}
		last = err
		if !retryable(err) {
			return nil, err
		}
	}
	if attempts > 1 {
		return nil, fmt.Errorf("client: giving up after %d attempts: %w", attempts, last)
	}
	return nil, last
}
