package server

import (
	"errors"
	"net/http"
	"strconv"
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
	refusals        [nRefusals]atomic.Uint64
}

// The reasons a request is refused with come-back-later (503, 429) or
// for good (409), counted per reason on /statsz "refusals".
const (
	refusedDegraded     = iota // a write while the store is degraded
	refusedWriteGate           // a write the node's write gate refused (an unpromoted follower)
	refusedFenced              // a write to a keyspace a newer epoch owns: 409
	refusedBackend             // an operation the store's backend failed
	refusedIngestBusy          // a batch over its stream's queue, or a stream over the cap: 429
	refusedIngestClosed        // intake work once shutdown began
	refusedDraining            // a diagnose while draining
	nRefusals
)

var refusalNames = [nRefusals]string{"degraded", "write_gate", "fenced", "backend", "ingest_busy", "ingest_closed", "draining"}

// refused counts one refusal of the given reason.
func (s *Server) refused(reason int) { s.counts.refusals[reason].Add(1) }

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
// closed intake. writeErr answers it with 503 and the wait after which a
// retry is worth it (setRetryAfter).
type unavailableError struct {
	err  error
	wait time.Duration
}

func (e *unavailableError) Error() string { return e.err.Error() }
func (e *unavailableError) Unwrap() error { return e.err }

// unavailable counts a refusal of the given reason and wraps err as a
// come-back-later one whose wait is wait.
func (s *Server) unavailable(reason int, wait time.Duration, err error) error {
	s.refused(reason)
	return &unavailableError{err: err, wait: wait}
}

// setRetryAfter tells a refused client to wait d: in whole seconds,
// rounded up, in Retry-After, which HTTP defines, and exactly, in
// milliseconds rounded up, in Retry-After-Ms, which internal/client
// prefers — a sub-second wait spelled in seconds would make it wait a
// whole one.
func setRetryAfter(h http.Header, d time.Duration) {
	h.Set("Retry-After", strconv.FormatInt(int64(max((d+time.Second-1)/time.Second, 1)), 10))
	h.Set("Retry-After-Ms", strconv.FormatInt(int64(max((d+time.Millisecond-1)/time.Millisecond, 1)), 10))
}

// storeWrite is the one admission and feedback ladder every public
// write climbs (put_run, delete_run, runs/batch, ingest/end,
// diagnose-with-save): refused while the store is degraded, touching
// the backend only for the one probe of a cooldown window once it is due
// (healthProbe); refused while this node may not write one of the
// (app, version) keyspaces in keys — a follower stays read-only until
// promoted, and a fenced ex-primary refuses for good (409, the one
// refusal that is not come-back-later); then write runs and its
// outcome feeds the breaker. Refusals and backend failures come back as
// *unavailableError, whose wait is the time to the next due probe while
// degraded, none after a failure that did not degrade the store, and the
// cooldown at the write gate; any other error is the write's own.
func (s *Server) storeWrite(keys []history.RecordKey, write func() error) error {
	if degraded, wait := s.healthProbe(); degraded {
		s.counts.writesRejected.Add(1)
		return s.unavailable(refusedDegraded, wait, errors.New("store backend unavailable; writes are disabled while degraded"))
	}
	if s.writeGate != nil {
		for _, k := range keys {
			if err := s.writeGate(k.App, k.Version); err != nil {
				s.counts.writesRejected.Add(1)
				if errors.Is(err, replica.ErrFenced) {
					s.refused(refusedFenced)
					return err
				}
				return s.unavailable(refusedWriteGate, s.brkPolicy.Cooldown, err)
			}
		}
	}
	if err := write(); err != nil {
		if s.observeStoreErr(err) {
			return s.unavailable(refusedBackend, s.brk.Wait(s.clock()), err)
		}
		if errors.Is(err, replica.ErrFenced) {
			s.refused(refusedFenced)
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
		err = s.unavailable(refusedBackend, s.brk.Wait(s.clock()), err)
	}
	writeErr(w, err, fallback)
}

// healthProbe runs the degraded-mode recovery check when one is due:
// at most one backend probe per cooldown window, ending degraded mode
// on success. /healthz and every write call it, so a write refused while
// degraded is told the time to the next due probe, and its retry then
// runs that probe and, on a healed backend, goes through. Returns the
// degraded state and, while degraded, that time.
func (s *Server) healthProbe() (bool, time.Duration) {
	if !s.brk.Open() {
		return false, 0
	}
	if due, wait := s.brk.Allow(s.brkPolicy, s.clock()); !due {
		return true, wait
	}
	s.counts.backendProbes.Add(1)
	if err := s.env.Store().Ping(); err != nil {
		s.counts.backendFaults.Add(1)
		return true, s.brkPolicy.Cooldown
	}
	s.brk.Success()
	return false, 0
}
