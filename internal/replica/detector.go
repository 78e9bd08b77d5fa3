package replica

import (
	"context"
	"sync"
	"time"

	"repro/internal/history"
)

// Detector is the primary-side half of the failure detector. It runs
// two checks on a heartbeat cadence:
//
//   - Zombie fencing: probe the known peers' info handshakes; if any
//     carries a higher epoch and claims the primary role, this node was
//     superseded while it kept serving (a partition healed, a kill -9
//     restarted faster than the lease) — fence the local primary so
//     every further gated write is refused with the typed fencing
//     error. On an epoch tie with another claimant, the larger
//     advertise URL yields, mirroring the election's smallest-URL win.
//   - Shard failover: a shard that stays degraded for a full lease TTL
//     is handed to its most-caught-up follower through the store's
//     failover seam — the detector, not just the breaker's read
//     fallback, drives promotion.
type Detector struct {
	prim      *Primary
	advertise string
	leaseTTL  time.Duration
	every     time.Duration

	// shardHealth and promoteShard arm the shard-failover check; nil
	// leaves only zombie fencing active.
	shardHealth  func() []history.ShardInfo
	promoteShard func(shard int) error
	// extraPeers are probe targets beyond the live registry (the -peers
	// flag), so a primary that never saw a pull still finds its rivals.
	extraPeers []string

	mu            sync.Mutex
	degradedSince map[int]time.Time
	promoted      map[int]bool
	stop          chan struct{}
	started       bool
	stopped       bool
	wg            sync.WaitGroup
}

// DetectorConfig configures NewDetector.
type DetectorConfig struct {
	Advertise    string
	LeaseTTL     time.Duration
	Every        time.Duration // probe cadence; defaults to LeaseTTL/3
	Peers        []string
	ShardHealth  func() []history.ShardInfo
	PromoteShard func(shard int) error
}

// NewDetector builds (but does not start) the primary-side detector.
func NewDetector(p *Primary, cfg DetectorConfig) *Detector {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 3 * time.Second
	}
	if cfg.Every <= 0 {
		cfg.Every = cfg.LeaseTTL / 3
	}
	if cfg.Every < 25*time.Millisecond {
		cfg.Every = 25 * time.Millisecond
	}
	return &Detector{
		prim:          p,
		advertise:     cfg.Advertise,
		leaseTTL:      cfg.LeaseTTL,
		every:         cfg.Every,
		shardHealth:   cfg.ShardHealth,
		promoteShard:  cfg.PromoteShard,
		extraPeers:    cfg.Peers,
		degradedSince: make(map[int]time.Time),
		promoted:      make(map[int]bool),
		stop:          make(chan struct{}),
	}
}

// Start launches the probe loop. Idempotent.
func (d *Detector) Start() {
	d.mu.Lock()
	if d.started || d.stopped {
		d.mu.Unlock()
		return
	}
	d.started = true
	d.mu.Unlock()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		t := time.NewTicker(d.every)
		defer t.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-t.C:
			}
			d.probePeers()
			d.checkShards()
		}
	}()
}

// Stop halts the probe loop and waits for it.
func (d *Detector) Stop() {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return
	}
	d.stopped = true
	close(d.stop)
	d.mu.Unlock()
	d.wg.Wait()
}

// probePeers fences the local primary if any peer has moved past it.
func (d *Detector) probePeers() {
	peers := append(append([]string(nil), d.prim.Peers()...), d.extraPeers...)
	mine := d.prim.Epoch()
	for _, info := range probe(context.Background(), peers, d.advertise, d.every) {
		if !info.ClaimsPrimary() {
			continue
		}
		if info.Epoch > mine {
			d.prim.Fence(info.Epoch)
			return
		}
		if info.Epoch == mine && d.advertise != "" && info.Advertise != "" && info.Advertise < d.advertise {
			// Equal-epoch split claim: exactly one of the two observers
			// yields, deterministically.
			d.prim.Fence(info.Epoch)
			return
		}
	}
}

// checkShards promotes a follower for any shard degraded past the
// lease TTL.
func (d *Detector) checkShards() {
	if d.shardHealth == nil || d.promoteShard == nil {
		return
	}
	now := time.Now()
	for _, si := range d.shardHealth() {
		d.mu.Lock()
		done := d.promoted[si.Shard]
		d.mu.Unlock()
		if done || si.Failover == "promoted" {
			continue
		}
		if !si.Degraded {
			d.mu.Lock()
			delete(d.degradedSince, si.Shard)
			d.mu.Unlock()
			continue
		}
		d.mu.Lock()
		since, ok := d.degradedSince[si.Shard]
		if !ok {
			d.degradedSince[si.Shard] = now
			d.mu.Unlock()
			continue
		}
		d.mu.Unlock()
		if now.Sub(since) < d.leaseTTL {
			continue
		}
		if err := d.promoteShard(si.Shard); err == nil {
			d.mu.Lock()
			d.promoted[si.Shard] = true
			d.mu.Unlock()
		}
	}
}
