// Package client is the typed Go client of the pcd diagnosis service
// (internal/server). The CLI tools use it in -server mode, so every
// store and harvest operation is available both in-process (against a
// -store directory) and over the wire with the same result shapes.
package client

import (
	"bytes"
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/breaker"
	"repro/internal/history"
	"repro/internal/server"
)

// Client talks to one pcd server. The zero HTTPClient means
// http.DefaultClient; diagnosis sessions can run long, so callers
// should prefer per-call contexts over a global client timeout.
//
// Retry and Breaker opt into the resilience layer (see retry.go): with
// a non-zero Retry, idempotent requests — queries, gets, harvests,
// comparisons — are retried with exponential backoff and jitter;
// PutRun, DeleteRun and Diagnose are never retried. With a non-zero
// Breaker, repeated failures trip a per-client circuit breaker that
// fails fast until a cooldown probe succeeds. Configure both before the
// first request; they must not be mutated concurrently with calls.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:7133".
	BaseURL    string
	HTTPClient *http.Client
	Retry      RetryPolicy
	Breaker    BreakerPolicy

	// Rand overrides the retry jitter source (tests inject a seeded
	// generator; nil means math/rand).
	Rand func() float64
	// sleep and now are test seams for the backoff wait and the breaker
	// clock.
	sleep func(ctx context.Context, d time.Duration) error
	now   func() time.Time

	brk    breaker.Breaker
	counts counters
}

// New creates a client for the given base URL with no retries and no
// breaker — every failure surfaces immediately.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// NewResilient creates a client with the given retry budget and the
// default circuit breaker — what the CLI tools build for -server mode.
func NewResilient(baseURL string, retries int) *Client {
	c := New(baseURL)
	c.Retry = DefaultRetryPolicy(retries)
	c.Breaker = DefaultBreakerPolicy()
	return c
}

// StatusError is a non-2xx response: the HTTP status plus the server's
// error message. Missing records (404) unwrap to os.ErrNotExist so
// callers can errors.Is them like local store misses; 503 and 429 both
// unwrap to ErrUnavailable so callers can tell "retry later" from
// fatal — a 429 (ingest backpressure, stream busy) is the same "come
// back after Retry-After" contract as a draining or degraded server.
// A 409 unwraps to ErrFenced: the node was superseded by a newer
// primary and will never accept this write — repoint, don't retry.
type StatusError struct {
	Status  int
	Message string
	// RetryAfter is the server's hint on a 503/429 — Retry-After-Ms if
	// sent, else Retry-After — zero when absent. The retry layer uses it
	// as the backoff floor.
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server: %s (HTTP %d)", e.Message, e.Status)
}

// Unwrap maps 404 onto os.ErrNotExist, 503 and 429 onto
// ErrUnavailable, and 409 onto ErrFenced.
func (e *StatusError) Unwrap() error {
	switch e.Status {
	case http.StatusNotFound:
		return os.ErrNotExist
	case http.StatusServiceUnavailable, http.StatusTooManyRequests:
		return ErrUnavailable
	case http.StatusConflict:
		return ErrFenced
	}
	return nil
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues one request — retried per the client's policy when
// idempotent — and decodes the JSON response into out (skipped when out
// is nil). doRaw returns the undecoded body instead.
func (c *Client) do(ctx context.Context, method, path string, query url.Values, body, out any, idempotent bool) error {
	data, err := c.doRaw(ctx, method, path, query, body, idempotent)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	if err := server.UnmarshalCanonical(data, out); err != nil {
		return fmt.Errorf("client: decode %s response: %w", path, err)
	}
	return nil
}

// doRaw issues one logical request through the retry/breaker layer and
// returns the raw (canonical-JSON) response body of a 2xx, or a
// *StatusError otherwise.
func (c *Client) doRaw(ctx context.Context, method, path string, query url.Values, body any, idempotent bool) ([]byte, error) {
	u := c.BaseURL + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	var payload []byte
	if body != nil {
		var err error
		switch body.(type) {
		case *history.RunRecord, server.PutRunsRequest:
			// Canonical: pcd stores a canonical record's bytes as they arrive.
			payload, err = server.MarshalCanonical(body)
		default:
			payload, err = server.MarshalCompact(body)
		}
		if err != nil {
			return nil, fmt.Errorf("client: encode request: %w", err)
		}
	}
	return c.send(ctx, idempotent, func() ([]byte, error) {
		return c.once(ctx, method, u, payload, body != nil)
	})
}

// once performs a single HTTP attempt.
func (c *Client) once(ctx context.Context, method, u string, payload []byte, hasBody bool) ([]byte, error) {
	var rd io.Reader
	if hasBody {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, transportErr(err)
	}
	defer resp.Body.Close()
	data, err := server.ReadBody(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, transportErr(fmt.Errorf("read response: %w", err))
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e server.ErrorResponse
		msg := strings.TrimSpace(string(data))
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		se := &StatusError{Status: resp.StatusCode, Message: msg}
		// pcd's wait in milliseconds is exact; Retry-After rounds it up to
		// whole seconds.
		if ms, err := strconv.Atoi(resp.Header.Get("Retry-After-Ms")); err == nil && ms >= 0 {
			se.RetryAfter = time.Duration(ms) * time.Millisecond
		} else if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
		return nil, se
	}
	return data, nil
}

// transportErr classifies a network-level failure: a refused dial, a
// reset connection, an EOF mid-response — the server never answered, so
// the failure is transient (ErrUnavailable) like a 503. A request the
// CALLER abandoned (context expiry) stays a plain error: backing off
// and retrying a deadline you set yourself is never right.
func transportErr(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("client: %w", err)
	}
	return &TransportError{Err: err}
}

// Health returns the server's /healthz status string.
func (c *Client) Health(ctx context.Context) (string, error) {
	var h server.HealthResponse
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, nil, &h, true); err != nil {
		return "", err
	}
	return h.Status, nil
}

// Stats returns the server's live counters.
func (c *Client) Stats(ctx context.Context) (*server.StatsResponse, error) {
	var st server.StatsResponse
	if err := c.do(ctx, http.MethodGet, "/statsz", nil, nil, &st, true); err != nil {
		return nil, err
	}
	return &st, nil
}

// WaitHealthy polls /healthz until the server answers "ok" or ctx
// expires — the startup handshake for tools that just spawned a pcd.
func (c *Client) WaitHealthy(ctx context.Context) error {
	for {
		st, err := c.Health(ctx)
		if err == nil && st == "ok" {
			return nil
		}
		select {
		case <-ctx.Done():
			if err == nil {
				err = fmt.Errorf("server status %q", st)
			}
			return fmt.Errorf("client: server not healthy: %w (last: %v)", ctx.Err(), err)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// ListRuns returns stored run display names, optionally filtered by
// application (and version, when app is non-empty).
func (c *Client) ListRuns(ctx context.Context, app, version string) ([]string, error) {
	q := url.Values{}
	if app != "" {
		q.Set("app", app)
		if version != "" {
			q.Set("version", version)
		}
	}
	var resp server.RunsResponse
	if err := c.do(ctx, http.MethodGet, "/api/v1/runs", q, nil, &resp, true); err != nil {
		return nil, err
	}
	return resp.Runs, nil
}

func refQuery(app, ref string) url.Values {
	q := url.Values{}
	q.Set("app", app)
	q.Set("ref", ref)
	return q
}

// GetRun fetches one stored run record by app and VERSION:RUNID ref.
func (c *Client) GetRun(ctx context.Context, app, ref string) (*history.RunRecord, error) {
	var rec history.RunRecord
	if err := c.do(ctx, http.MethodGet, "/api/v1/run", refQuery(app, ref), nil, &rec, true); err != nil {
		return nil, err
	}
	return &rec, nil
}

// PutRun stores one run record, returning its display name.
func (c *Client) PutRun(ctx context.Context, rec *history.RunRecord) (string, error) {
	var resp server.PutRunResponse
	if err := c.do(ctx, http.MethodPut, "/api/v1/run", nil, rec, &resp, false); err != nil {
		return "", err
	}
	return resp.Saved, nil
}

// DeleteRun removes one stored run record.
func (c *Client) DeleteRun(ctx context.Context, app, ref string) error {
	return c.do(ctx, http.MethodDelete, "/api/v1/run", refQuery(app, ref), nil, nil, false)
}

// QueryParams select (hypothesis : focus) outcomes across stored runs —
// the wire form of history.ResultFilter plus the app/version scope.
type QueryParams struct {
	App     string
	Version string
	Hyp     string
	Focus   string
	State   string
	Min     float64
}

func (p QueryParams) values() url.Values {
	q := url.Values{}
	q.Set("app", p.App)
	if p.Version != "" {
		q.Set("version", p.Version)
	}
	if p.Hyp != "" {
		q.Set("hyp", p.Hyp)
	}
	if p.Focus != "" {
		q.Set("focus", p.Focus)
	}
	if p.State != "" {
		q.Set("state", p.State)
	}
	if p.Min != 0 {
		q.Set("min", strconv.FormatFloat(p.Min, 'g', -1, 64))
	}
	return q
}

// Query runs a cross-run result query on the server.
func (c *Client) Query(ctx context.Context, p QueryParams) (*server.QueryResponse, error) {
	var resp server.QueryResponse
	if err := c.do(ctx, http.MethodGet, "/api/v1/query", p.values(), nil, &resp, true); err != nil {
		return nil, err
	}
	return &resp, nil
}

// QueryRaw is Query returning the server's canonical JSON bytes, for
// comparing two servers' answers byte for byte.
func (c *Client) QueryRaw(ctx context.Context, p QueryParams) ([]byte, error) {
	return c.doRaw(ctx, http.MethodGet, "/api/v1/query", p.values(), nil, true)
}

// Persistent returns the pairs true in at least minRuns stored runs.
func (c *Client) Persistent(ctx context.Context, app, version string, minRuns int) (*server.PersistentResponse, error) {
	q := url.Values{}
	q.Set("app", app)
	if version != "" {
		q.Set("version", version)
	}
	q.Set("min", strconv.Itoa(minRuns))
	var resp server.PersistentResponse
	if err := c.do(ctx, http.MethodGet, "/api/v1/persistent", q, nil, &resp, true); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Specific returns the most specific bottlenecks of one stored run.
func (c *Client) Specific(ctx context.Context, app, ref string) (*server.SpecificResponse, error) {
	var resp server.SpecificResponse
	if err := c.do(ctx, http.MethodGet, "/api/v1/specific", refQuery(app, ref), nil, &resp, true); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Compare diagnoses the difference between two stored runs.
func (c *Client) Compare(ctx context.Context, app, refA, refB string, eps float64) (*server.CompareResponse, error) {
	q := url.Values{}
	q.Set("app", app)
	q.Set("a", refA)
	q.Set("b", refB)
	q.Set("eps", strconv.FormatFloat(eps, 'g', -1, 64))
	var resp server.CompareResponse
	if err := c.do(ctx, http.MethodGet, "/api/v1/compare", q, nil, &resp, true); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Harvest extracts directives from stored runs on the server.
func (c *Client) Harvest(ctx context.Context, req *server.HarvestRequest) (*server.HarvestResponse, error) {
	var resp server.HarvestResponse
	if err := c.do(ctx, http.MethodPost, "/api/v1/harvest", nil, req, &resp, true); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Diagnose submits one on-demand diagnosis session and waits for its
// result. Long searches hold the connection open; bound the wait with
// ctx.
//
// With req.IdempotencyKey set (see NewIdempotencyKey) the request is
// safe to retry — a journaling server deduplicates resends and serves
// the stored result — so the client's retry policy applies: after an
// ErrUnavailable or a dropped connection the same key is resent, making
// diagnose effectively exactly-once from the caller's view. Without a
// key, Diagnose is never retried.
func (c *Client) Diagnose(ctx context.Context, req *server.DiagnoseRequest) (*server.DiagnoseResponse, error) {
	var resp server.DiagnoseResponse
	idempotent := req != nil && req.IdempotencyKey != ""
	if err := c.do(ctx, http.MethodPost, "/api/v1/diagnose", nil, req, &resp, idempotent); err != nil {
		return nil, err
	}
	return &resp, nil
}

// NewIdempotencyKey returns a fresh random key for
// DiagnoseRequest.IdempotencyKey: 16 random bytes, hex-encoded.
func NewIdempotencyKey() string {
	var b [16]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// The system entropy source is gone; fall back to a time-derived
		// key rather than failing the request path.
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}
