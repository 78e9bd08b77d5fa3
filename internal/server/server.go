// Package server implements pcd, the long-running diagnosis service: an
// HTTP/JSON daemon that owns one experiment store and harvest cache
// (a harness.Env) and serves store queries, directive harvesting, and
// on-demand diagnosis sessions to many concurrent clients. It is the
// network form of the paper's Section 6 experiment-management
// infrastructure — the store and cache PR 2 built in-process, put behind
// a wire API so the CLI tools become thin clients.
package server

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/app"
	"repro/internal/breaker"
	"repro/internal/harness"
	"repro/internal/history"
	"repro/internal/ingest"
	"repro/internal/metric"
	"repro/internal/replica"
)

// Options configures a Server.
type Options struct {
	// Sessions bounds the number of diagnosis sessions in flight across
	// all requests (the server-wide worker pool); <= 0 means
	// runtime.GOMAXPROCS(0).
	Sessions int
	// SessionTimeout bounds how long one diagnose request waits for a
	// session slot; 0 means no timeout. A session that has started runs
	// to completion.
	SessionTimeout time.Duration
	// BreakerThreshold is the number of consecutive backend failures
	// that flips the server into degraded mode (reads from the index,
	// writes refused with 503); <= 0 means 3.
	BreakerThreshold int
	// BreakerCooldown is how long degraded mode waits between backend
	// recovery probes, and the Retry-After given to refused writes;
	// <= 0 means 5s.
	BreakerCooldown time.Duration
	// SessionRetries is ignored: a diagnosis session is pure
	// computation and runs once. The field is kept because the frozen
	// benchmark topology (bench/topology.go) still sets it.
	SessionRetries int
	// Ingest tunes the streaming intake (per-stream queue depth, stream
	// cap, idle timeout, engine budget); the zero value means the
	// ingest.ManagerOptions defaults.
	Ingest ingest.ManagerOptions
	// Replication, when non-nil, mounts the replication endpoints for the
	// node's role(s) — WAL pull + snapshot on a primary, promote + op
	// redirection on a follower — and adds the replication block to
	// /statsz.
	Replication *replica.Node
	// WriteGate, when non-nil, is consulted before every public write
	// (put, batch put, delete, diagnose-with-save, ingest start): a
	// non-nil error refuses the write with 503 + Retry-After. Follower
	// nodes use it to stay read-only until promoted.
	WriteGate func(app, version string) error
}

// Server is the diagnosis service. Create with New, expose via Handler,
// stop with Shutdown. All methods are safe for concurrent use.
type Server struct {
	env            *harness.Env
	pool           *sessionPool
	sessionTimeout time.Duration
	brkPolicy      breaker.Policy
	mux            *http.ServeMux

	// intake is the streaming-ingestion manager: one incremental
	// diagnosis session per active sample stream (see internal/ingest).
	intake *ingest.Manager
	// routeTable records every registered endpoint (pattern, op name);
	// built once in routes().
	routeTable []route

	// journal, when non-nil, makes keyed diagnose requests durable (see
	// sessions.go).
	journal *sessionJournal

	// replication is the node's replication role(s); writeGate refuses
	// public writes on unpromoted followers. Both nil on plain nodes.
	replication *replica.Node
	writeGate   func(app, version string) error

	// counts are the resilience counters /statsz reports; stages the time
	// each stage of a request took, by (op, stage), which the store, the
	// replication gate and the intake record into too.
	counts svcCounters
	stages *metric.Stages
	// inFlight gauges HTTP requests currently being served; opCounts
	// holds one cumulative counter per endpoint, registered in routes()
	// so reads stay lock-free.
	inFlight atomic.Int64
	opCounts map[string]*atomic.Uint64
	// now is a test seam for the degraded-mode clock; nil means
	// time.Now.
	now func() time.Time

	// brk is the degradation breaker: brkPolicy.Threshold consecutive
	// backend failures turn the server degraded until a /healthz-driven
	// probe, at most one per cooldown, proves the backend healthy again.
	brk breaker.Breaker

	// mu guards the drain state and the in-flight diagnose count; cond
	// is signalled each time a diagnose request finishes so Drain can
	// wait for the count to reach zero.
	mu       sync.Mutex
	cond     *sync.Cond
	draining bool
	active   int

	// session runs one diagnosis session; runHarnessSession, replaceable
	// by tests that need sessions to block or fail on command.
	session func(ctx context.Context, a *app.App, cfg harness.SessionConfig) (*harness.SessionResult, error)
}

// New creates a server over env (which owns the store and cache).
func New(env *harness.Env, opts Options) *Server {
	n := opts.Sessions
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	thr := opts.BreakerThreshold
	if thr <= 0 {
		thr = 3
	}
	cd := opts.BreakerCooldown
	if cd <= 0 {
		cd = 5 * time.Second
	}
	s := &Server{
		env:            env,
		pool:           newSessionPool(n),
		sessionTimeout: opts.SessionTimeout,
		brkPolicy:      breaker.Policy{Threshold: thr, Cooldown: cd},
		session:        runHarnessSession,
		opCounts:       map[string]*atomic.Uint64{},
		replication:    opts.Replication,
		writeGate:      opts.WriteGate,
		stages:         metric.NewStages(),
	}
	if st, ok := env.Store().(interface{ ObserveStages(*metric.Stages) }); ok {
		st.ObserveStages(s.stages)
	}
	s.intake = ingest.NewManager(env, opts.Ingest)
	s.intake.ObserveStages(s.stages)
	s.cond = sync.NewCond(&s.mu)
	s.mux = s.routes()
	return s
}

// Env returns the environment the server serves.
func (s *Server) Env() *harness.Env { return s.env }

// EnableSessionJournal turns on durable diagnosis sessions: each
// diagnose request carrying an idempotency key is journaled under dir
// before its session runs and answered from the journal on resends.
// The float is ignored; it stays for callers that still pass one. Call
// before serving; pair with ResumeSessions after a restart.
func (s *Server) EnableSessionJournal(dir string, _ float64) (err error) {
	s.journal, err = openSessionJournal(dir)
	return err
}

// ResumeSessions re-runs every session the previous process accepted
// but never finished (the journal's pending entries), in key order,
// each through diagnose as an in-flight request with its key, so
// Shutdown's drain waits for it and one failure rule journals it.
// Sessions are deterministic per seed, so a resend of the key is served
// the bytes the dead process would have sent. Once draining has begun,
// the rest stay pending. Returns how many orphans were resolved done.
func (s *Server) ResumeSessions(ctx context.Context) (int, error) {
	if s.journal == nil {
		return 0, nil
	}
	orphans, err := s.journal.orphans()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, rec := range orphans {
		if !s.beginDiagnose() {
			break
		}
		var req DiagnoseRequest
		err := UnmarshalCanonical(rec.Request, &req)
		if err != nil {
			// The journaled request itself is unusable; drop it so it does
			// not orphan forever.
			s.journal.fail(rec.Key)
		} else {
			req.IdempotencyKey = rec.Key
			_, err = s.diagnose(ctx, &req, rec.Request)
		}
		s.endDiagnose()
		if ctx.Err() != nil {
			return n, ctx.Err()
		}
		if err == nil {
			s.counts.sessionsResumed.Add(1)
			n++
		}
	}
	return n, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain moves the server into draining: /healthz reports
// "draining" and new diagnose requests are refused with 503. In-flight
// work is unaffected.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Drain blocks until every in-flight diagnose request has finished or
// ctx expires. It does not begin the drain; call BeginDrain first (or
// use Shutdown).
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.mu.Lock()
		for s.active > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Wake the waiter goroutine eventually; it exits when the last
		// request signals the cond.
		return ctx.Err()
	}
}

// Shutdown gracefully stops the service: refuse new diagnoses, shut the
// streaming intake down (active streams are discarded — a client that
// wants its run kept must send the end-of-stream marker first), then
// wait (bounded by ctx) for in-flight sessions to complete.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	s.intake.Close()
	return s.Drain(ctx)
}

// beginDiagnose admits one diagnose request, returning false while
// draining.
func (s *Server) beginDiagnose() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.active++
	return true
}

// endDiagnose retires one diagnose request.
func (s *Server) endDiagnose() {
	s.mu.Lock()
	s.active--
	s.mu.Unlock()
	s.cond.Broadcast()
}

// stats snapshots the live counters for /statsz.
func (s *Server) stats() StatsResponse {
	s.mu.Lock()
	active, draining := s.active, s.draining
	s.mu.Unlock()
	hits, misses := s.env.Cache().Stats()
	ws := s.env.Store().WALStats()
	var shards []history.ShardInfo
	if ss, ok := s.env.Store().(interface{ ShardStats() []history.ShardInfo }); ok {
		shards = ss.ShardStats()
	}
	ops := make(map[string]uint64, len(s.opCounts))
	for name, ctr := range s.opCounts {
		ops[name] = ctr.Load()
	}
	refusals := make(map[string]uint64, nRefusals)
	for i, name := range refusalNames {
		refusals[name] = s.counts.refusals[i].Load()
	}
	return StatsResponse{
		LiveSessions:    int(s.pool.live.Load()),
		SessionCapacity: s.pool.Capacity(),
		TotalSessions:   s.pool.total.Load(),
		ActiveDiagnoses: active,
		CacheHits:       hits,
		CacheMisses:     misses,
		StoreRecords:    s.env.Store().Len(),
		StoreIssues:     len(s.env.Store().ScanIssues()),
		Draining:        draining,
		Degraded:        s.isDegraded(),
		BackendFaults:   s.counts.backendFaults.Load(),
		WritesRejected:  s.counts.writesRejected.Load(),
		BreakerOpens:    s.counts.breakerOpens.Load(),
		BackendProbes:   s.counts.backendProbes.Load(),
		WALAppends:      ws.Appends,
		WALSyncs:        ws.Syncs,
		WALRotations:    ws.Rotations,
		JournalHits:     s.counts.journalHits.Load(),
		SessionsResumed: s.counts.sessionsResumed.Load(),
		InFlight:        s.inFlight.Load(),
		OpCounts:        ops,
		Stages:          s.stages.Snapshot(),
		Refusals:        refusals,
		Shards:          shards,
		Ingest:          s.intake.Snapshot(),
		Replication:     s.replication.Stats(),
	}
}

// sessionPool bounds concurrent diagnosis sessions server-wide,
// instrumented for /statsz.
type sessionPool struct {
	slots chan struct{}
	live  atomic.Int64
	total atomic.Uint64
}

func newSessionPool(n int) *sessionPool {
	if n < 1 {
		n = 1
	}
	return &sessionPool{slots: make(chan struct{}, n)}
}

// Acquire blocks until a slot is free or ctx is done, returning
// ctx.Err() in the latter case; a done ctx never gets a slot.
func (p *sessionPool) Acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case p.slots <- struct{}{}:
		p.live.Add(1)
		p.total.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot obtained by a successful Acquire.
func (p *sessionPool) Release() {
	p.live.Add(-1)
	<-p.slots
}

// Capacity returns the pool size.
func (p *sessionPool) Capacity() int { return cap(p.slots) }
