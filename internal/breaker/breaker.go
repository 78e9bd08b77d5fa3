// Package breaker is the one consecutive-failure circuit breaker the
// system uses at its three degradation rungs: the client's per-server
// breaker, the daemon's degraded-store mode, and each shard's down flag.
// The machine is the same everywhere — Threshold consecutive failures
// open it, proof of health closes it, and while open at most one probe
// per Cooldown is admitted — and the rungs differ only in what they feed
// it and what they count as proof.
package breaker

import (
	"sync"
	"time"
)

// Policy configures a Breaker's transitions.
type Policy struct {
	// Threshold is the number of consecutive failures that opens the
	// breaker.
	Threshold int
	// Cooldown is the minimum spacing of probes while open; <= 0 means
	// 5s.
	Cooldown time.Duration
}

func (p Policy) cooldown() time.Duration {
	if p.Cooldown > 0 {
		return p.Cooldown
	}
	return 5 * time.Second
}

// Breaker is the failure streak and open/closed state. The zero value
// is a closed breaker. Safe for concurrent use. The policy is passed per
// call, so an owner whose policy is a mutable public field needs no
// second copy of it.
type Breaker struct {
	mu        sync.Mutex
	fails     int
	open      bool
	nextProbe time.Time
}

// Failure records one failure, reporting whether it opened the breaker
// (the streak just reached the threshold). Failures while open — failed
// probes — extend nothing: the probe's admission already claimed its
// cooldown window.
func (b *Breaker) Failure(p Policy, now time.Time) (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.open || b.fails < p.Threshold {
		return false
	}
	b.open = true
	b.nextProbe = now.Add(p.cooldown())
	return true
}

// Success records proof of health: the streak resets and the breaker
// closes.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.fails = 0
	b.open = false
	b.nextProbe = time.Time{}
	b.mu.Unlock()
}

// ResetStreak records a success that is no proof of health for an open
// breaker — a shard's lucky read must not flap a broken shard back in —
// so it only clears the consecutive-failure count.
func (b *Breaker) ResetStreak() {
	b.mu.Lock()
	b.fails = 0
	b.mu.Unlock()
}

// Wait is how long, while the breaker is open, until its next probe is
// due: 0 when it is closed or a probe is due.
func (b *Breaker) Wait(now time.Time) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open || !now.Before(b.nextProbe) {
		return 0
	}
	return b.nextProbe.Sub(now)
}

// Open reports whether the breaker is open.
func (b *Breaker) Open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}

// Allow answers "may I try now?". A closed breaker always allows. An
// open one admits exactly one probe per cooldown window, claiming the
// window for the caller so concurrent callers keep failing fast until
// the probe's verdict is in; otherwise it reports how long until the
// next probe is due.
func (b *Breaker) Allow(p Policy, now time.Time) (ok bool, wait time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true, 0
	}
	if now.Before(b.nextProbe) {
		return false, b.nextProbe.Sub(now)
	}
	b.nextProbe = now.Add(p.cooldown())
	return true, 0
}
