package replica

import (
	"context"
	"sync"
	"time"

	"repro/internal/history"
)

// Detector is the primary side's observer. On a heartbeat cadence, while
// the node owns any shard, it reports two things to the table:
//
//   - Claims: the known peers' info handshakes. A peer owning one of this
//     node's shards under a higher epoch means that shard was taken while
//     this node kept serving it (a partition healed, a kill -9 restarted
//     faster than the lease) — the table fences that row, and only that
//     row.
//   - Shard health: a shard the store reports degraded for a full lease
//     TTL is handed to its most-caught-up follower through the store's
//     failover seam — the detector, not just the breaker's read
//     fallback, drives the hand-over.
type Detector struct {
	prim *Primary
	cfg  DetectorConfig

	start  sync.Once
	ctx    context.Context // canceled by Stop: ends the loop, aborts its probes
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// DetectorConfig configures NewDetector. ShardHealth and PromoteShard arm
// the shard-health report; nil leaves only the claims. Peers are probe
// targets beyond the live registry (the -peers flag), so a primary that
// never saw a pull still finds its rivals.
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
	cfg.LeaseTTL, cfg.Every = cadence(cfg.LeaseTTL, cfg.Every, 3)
	p.tab.apply(event{kind: evArm, peer: cfg.Advertise, lease: cfg.LeaseTTL})
	d := &Detector{prim: p, cfg: cfg}
	d.ctx, d.cancel = context.WithCancel(context.Background())
	return d
}

// everyTick starts a goroutine under wg that calls fn once per window
// until ctx ends.
func everyTick(ctx context.Context, wg *sync.WaitGroup, window time.Duration, fn func(tick int)) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(window)
		defer t.Stop()
		for tick := 0; ; tick++ {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			fn(tick)
		}
	}()
}

// Start launches the probe loop. Idempotent; after Stop the loop it
// launches ends at once.
func (d *Detector) Start() {
	d.start.Do(func() { everyTick(d.ctx, &d.wg, d.cfg.Every, func(int) { d.tick() }) })
}

// Stop halts the probe loop and waits for it.
func (d *Detector) Stop() {
	d.cancel()
	d.wg.Wait()
}

// tick reports one round of observations. A node that owns nothing has
// nothing to be fenced out of and nothing to hand over.
func (d *Detector) tick() {
	tab := d.prim.tab
	if len(tab.read().owned()) == 0 {
		return
	}
	peers := append(append([]string(nil), d.prim.Peers()...), d.cfg.Peers...)
	for _, info := range probe(d.ctx, peers, d.cfg.Advertise, len(tab.read().rows), d.cfg.Every) {
		if info.ClaimsPrimary() {
			tab.apply(event{kind: evClaim, peer: info.Advertise, claims: info.Owned})
		}
	}
	if d.cfg.ShardHealth == nil || d.cfg.PromoteShard == nil {
		return
	}
	for _, si := range d.cfg.ShardHealth() {
		_, fx, _ := tab.apply(event{kind: evHealth, shard: si.Shard, down: si.Degraded})
		for range fx {
			// The seam records a hand-over that worked in the table; one
			// that did not is asked for again next tick.
			_ = d.cfg.PromoteShard(si.Shard)
		}
	}
}
