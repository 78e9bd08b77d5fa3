package server

import (
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/history"
	"repro/internal/replica"
)

// Degraded mode: when the store's backend starts failing, pcd keeps
// answering reads from the in-memory index but stops accepting writes,
// refusing them with 503 + Retry-After instead of letting each request
// discover the outage the slow way. /healthz flips to "degraded" and
// doubles as the recovery path — each cooldown it probes the backend
// once and, when the probe succeeds, the server returns to "ok" without
// a restart.

// svcCounters is the atomic backing store for the resilience fields of
// StatsResponse.
type svcCounters struct {
	backendFaults   atomic.Uint64
	writesRejected  atomic.Uint64
	breakerOpens    atomic.Uint64
	backendProbes   atomic.Uint64
	journalHits     atomic.Uint64
	sessionsResumed atomic.Uint64
}

// observeStoreErr feeds one store-operation failure into the breaker.
// Only backend trouble counts — a miss (os.ErrNotExist) or a validation
// error is the server answering correctly. Reports whether err was
// backend trouble.
func (s *Server) observeStoreErr(err error) bool {
	if !history.IsTransient(err) {
		return false
	}
	s.counts.backendFaults.Add(1)
	if s.brk.Failure(s.brkPolicy, s.clock()) {
		s.counts.breakerOpens.Add(1)
	}
	return true
}

// isDegraded reports the current degraded state.
func (s *Server) isDegraded() bool { return s.brk.Open() }

// clock returns the current time via the test seam when set.
func (s *Server) clock() time.Time {
	if s.now != nil {
		return s.now()
	}
	return time.Now()
}

// unavailableError marks a request refused for a reason that will pass —
// a degraded store, a backend fault, a follower not yet promoted, a
// closed intake. writeErr answers it with 503 and a Retry-After of
// retryAfter seconds, telling well-behaved clients when a retry is
// worth it.
type unavailableError struct {
	err        error
	retryAfter int
}

func (e *unavailableError) Error() string { return e.err.Error() }
func (e *unavailableError) Unwrap() error { return e.err }

// unavailable wraps err as a come-back-later refusal whose Retry-After
// is the breaker cooldown.
func (s *Server) unavailable(err error) error {
	secs := int(s.brkPolicy.Cooldown / time.Second)
	if secs < 1 {
		secs = 1
	}
	return &unavailableError{err: err, retryAfter: secs}
}

// storeWrite is the one admission and feedback ladder every public
// write climbs (put_run, delete_run, runs/batch, ingest/end,
// diagnose-with-save): refused without touching the backend while the
// store is degraded; refused while this node may not write one of the
// (app, version) keyspaces in keys — a follower stays read-only until
// promoted, and a fenced ex-primary refuses for good (409, the one
// refusal that is not come-back-later); then write runs and its
// outcome feeds the breaker. Refusals and backend failures come back as
// *unavailableError; any other error is the write's own.
func (s *Server) storeWrite(keys []history.RecordKey, write func() error) error {
	if s.isDegraded() {
		s.counts.writesRejected.Add(1)
		return s.unavailable(errors.New("store backend unavailable; writes are disabled while degraded"))
	}
	if s.writeGate != nil {
		for _, k := range keys {
			if err := s.writeGate(k.App, k.Version); err != nil {
				s.counts.writesRejected.Add(1)
				if errors.Is(err, replica.ErrFenced) {
					return err
				}
				return s.unavailable(err)
			}
		}
	}
	if err := write(); err != nil {
		if s.observeStoreErr(err) {
			return s.unavailable(err)
		}
		return err
	}
	s.brk.Success()
	return nil
}

// failStore maps a failed store read onto the wire, feeding the
// breaker: backend trouble becomes 503 + Retry-After, everything else
// takes the ordinary writeErr path.
func (s *Server) failStore(w http.ResponseWriter, err error, fallback int) {
	if s.observeStoreErr(err) {
		err = s.unavailable(err)
	}
	writeErr(w, err, fallback)
}

// healthProbe runs the degraded-mode recovery check when one is due:
// at most one backend probe per cooldown window, ending degraded mode
// on success. Returns the current degraded state.
func (s *Server) healthProbe() bool {
	if !s.brk.Open() {
		return false
	}
	if due, _ := s.brk.Allow(s.brkPolicy, s.clock()); !due {
		return true
	}
	s.counts.backendProbes.Add(1)
	if err := s.env.Store().Ping(); err != nil {
		s.counts.backendFaults.Add(1)
		return true
	}
	s.brk.Success()
	return false
}
