package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/history"
)

// stateDirName is the per-shard-store subdirectory holding replication
// state; stateFileName records the follower's durable position.
const (
	stateDirName  = "replica"
	stateFileName = "STATE.json"
)

// replState is a follower shard's durable position: the primary journal
// position it has applied through, and whether the shard was promoted.
// Persisted after each applied batch — a crash between apply and
// persist just re-pulls from the older position, and re-apply is
// idempotent (same entries, same bytes).
//
// Version 2 (FORMATS.md "STATE.json v2") adds the failover fields: the
// primary this shard follows, the epoch-stamped liveness lease the
// primary last granted, and — on a demoted ex-primary — the stale epoch
// it was fenced out of, so a zombie write attempt can be refused with
// the typed fencing error naming both generations. Version 1 files
// (no version field) load unchanged.
type replState struct {
	Version  int    `json:"version,omitempty"`
	Epoch    uint64 `json:"epoch"`
	Applied  uint64 `json:"applied_seq"`
	Promoted bool   `json:"promoted,omitempty"`
	Primary  string `json:"primary,omitempty"`
	// DemotedFrom records the journal epoch this node owned before a
	// newer promotion fenced it out — kept until the shard is
	// legitimately promoted again.
	DemotedFrom uint64      `json:"demoted_from,omitempty"`
	Lease       *leaseState `json:"lease,omitempty"`
}

// leaseState is the persisted liveness lease: the primary grants TTLMS
// of presumed liveness on every pull, stamped with the journal epoch it
// was granted under.
type leaseState struct {
	Epoch uint64 `json:"epoch"`
	TTLMS int64  `json:"ttl_ms"`
}

// stateVersion is what saveState stamps on every write.
const stateVersion = 2

func statePath(storeDir string) string {
	return filepath.Join(storeDir, stateDirName, stateFileName)
}

func loadState(storeDir string) (replState, error) {
	var st replState
	data, err := os.ReadFile(statePath(storeDir))
	if err != nil {
		if os.IsNotExist(err) {
			return st, nil
		}
		return st, err
	}
	if err := json.Unmarshal(data, &st); err != nil {
		// A torn state file is crash residue: restart from zero and let
		// anti-entropy re-derive the position.
		return replState{}, nil
	}
	return st, nil
}

// saveState persists st durably (data and directory fsynced): the file
// carries the promoted and demoted-from flags and the epoch, which must
// survive power loss.
func saveState(storeDir string, st replState) error {
	return writeState(storeDir, st, history.WriteFileAtomic)
}

// checkpointState persists an advanced applied position without the
// fsyncs. A lost or stale position only costs an idempotent re-pull (a
// torn file, a snapshot bootstrap), the shard is by definition not
// promoted while it is still applying, and this write sits between a
// follower's apply and the pull that acknowledges it — on the ack path
// of every replicated write.
func checkpointState(storeDir string, st replState) error {
	return writeState(storeDir, st, history.ReplaceFile)
}

func writeState(storeDir string, st replState, write func(path, tmpPattern string, data []byte) error) error {
	st.Version = stateVersion
	dir := filepath.Join(storeDir, stateDirName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return write(filepath.Join(dir, stateFileName), ".state-*.tmp", append(data, '\n'))
}

// AutoConfig arms a follower's failure detector: pulls double as
// heartbeats, the primary's lease grant rides each pull response, and a
// follower whose lease expires (no contact for LeaseTTL, i.e. K missed
// HeartbeatEvery windows) declares the primary suspect and runs the
// promotion election against Peers.
type AutoConfig struct {
	// LeaseTTL is how long the primary is presumed alive after the last
	// successful contact. The primary's own grant (PullResponse
	// LeaseTTLMS) overrides it when non-zero, so the primary's -lease-ttl
	// flag is the cluster-wide source of truth.
	LeaseTTL time.Duration
	// HeartbeatEvery is the detector tick and the cap on the pull
	// long-poll, so a caught-up follower still refreshes its lease at
	// heartbeat granularity.
	HeartbeatEvery time.Duration
	// Peers are the other followers' advertised URLs — the electorate.
	// The live membership learned from the primary's info handshake is
	// merged in.
	Peers []string
	// Replicas is the deployment's follower count N; the election
	// requires seeing a majority of max(N, known electorate) nodes.
	Replicas int
	// OnPromote, when set, observes a successful self-promotion with the
	// bumped epoch — the daemon uses it to flip its standby primary's
	// shard logs to the new generation.
	OnPromote func(epoch uint64)
}

func (c AutoConfig) withDefaults() AutoConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 3 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = c.LeaseTTL / 6
	}
	if c.HeartbeatEvery < 25*time.Millisecond {
		c.HeartbeatEvery = 25 * time.Millisecond
	}
	return c
}

// Follower replicates every shard of one primary into a local durable
// store of the same layout: per shard, a pull loop long-polls the
// primary's WAL endpoint, CRC-verifies and folds frames through
// Store.ApplyReplicated, and persists its applied position. Promotion
// — by an operator, or by the failure detector winning an election —
// stops a shard's loop and opens its keyspace for writes.
type Follower struct {
	self   string // this node's advertised URL, the registry id
	stores []*history.Store
	ctx    context.Context // canceled by Stop: aborts in-flight pulls
	cancel context.CancelFunc

	mu          sync.Mutex
	primary     string // primary base URL (may be retargeted by failover)
	states      []replState
	stopped     bool
	lastErr     string
	stop        chan struct{}
	wg          sync.WaitGroup
	pollWait    time.Duration
	auto        bool
	cfg         AutoConfig
	members     map[string]bool // learned electorate (advertise URLs, incl peers)
	lastContact time.Time       // last successful exchange with the primary
	leaseTTL    time.Duration   // primary's grant; falls back to cfg.LeaseTTL
	suspect     bool
	demotedFrom uint64 // stale epoch this ex-primary was fenced out of

	fencingRejects atomic.Uint64
	promotions     atomic.Uint64
}

// NewFollower builds a follower of primaryURL over the local storage
// layout. selfURL is the address the primary (and its failover seam)
// can reach this node at; it doubles as the follower's registry id.
// Previously persisted positions — including promotion — are reloaded,
// so a restarted promoted follower stays writable.
func NewFollower(primaryURL, selfURL string, st history.Storage) (*Follower, error) {
	stores, err := StoreShards(st)
	if err != nil {
		return nil, err
	}
	f := &Follower{
		primary:  primaryURL,
		self:     selfURL,
		stores:   stores,
		stop:     make(chan struct{}),
		pollWait: 20 * time.Second,
		members:  make(map[string]bool),
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	for i, s := range stores {
		dir := s.Dir()
		if dir == "" {
			return nil, fmt.Errorf("replica: shard %02d has no directory (follower needs a filesystem store)", i)
		}
		rs, err := loadState(dir)
		if err != nil {
			return nil, fmt.Errorf("replica: shard %02d state: %w", i, err)
		}
		// A promoted shard restarts into a fresh journal generation
		// (StartWAL bumps the epoch); re-sync the persisted position so
		// the fencing epoch it advertises matches the journal it owns.
		if rs.Promoted {
			if w := s.WAL(); w != nil && w.Epoch() != rs.Epoch {
				rs.Epoch = w.Epoch()
				if err := saveState(dir, rs); err != nil {
					return nil, fmt.Errorf("replica: shard %02d state: %w", i, err)
				}
			}
		}
		if rs.DemotedFrom > f.demotedFrom {
			f.demotedFrom = rs.DemotedFrom
		}
		f.states = append(f.states, rs)
	}
	return f, nil
}

// SetAutoFailover arms the heartbeat/lease failure detector: Start will
// launch a monitor goroutine alongside the pull loops, and the pull
// long-poll is capped at the heartbeat interval so a caught-up follower
// still refreshes its lease every window.
func (f *Follower) SetAutoFailover(cfg AutoConfig) {
	cfg = cfg.withDefaults()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.auto = true
	f.cfg = cfg
	for _, p := range cfg.Peers {
		if p != "" && p != f.self {
			f.members[p] = true
		}
	}
	if f.pollWait > cfg.HeartbeatEvery {
		f.pollWait = cfg.HeartbeatEvery
	}
}

// Shards returns the shard count.
func (f *Follower) Shards() int { return len(f.stores) }

// Start launches one pull loop per unpromoted shard, plus the failure
// detector when automatic failover is armed.
func (f *Follower) Start() {
	f.mu.Lock()
	f.lastContact = time.Now()
	auto := f.auto
	f.mu.Unlock()
	started := 0
	for i := range f.stores {
		f.mu.Lock()
		promoted := f.states[i].Promoted
		f.mu.Unlock()
		if promoted {
			continue
		}
		started++
		f.wg.Add(1)
		go func(shard int) {
			defer f.wg.Done()
			f.pullLoop(shard)
		}(i)
	}
	if auto && started > 0 {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			f.monitorLoop()
		}()
	}
}

// Stop halts every pull loop and waits for them.
func (f *Follower) Stop() {
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return
	}
	f.stopped = true
	close(f.stop)
	f.mu.Unlock()
	// Abort in-flight pulls too: a caught-up shard's long-poll would
	// otherwise hold the drain for the full poll window.
	f.cancel()
	f.wg.Wait()
}

// pullLoop replicates one shard until stop or promotion.
func (f *Follower) pullLoop(shard int) {
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		f.mu.Lock()
		if f.states[shard].Promoted {
			f.mu.Unlock()
			return
		}
		f.mu.Unlock()
		if _, err := f.pullOnce(shard, f.pollWait); err != nil {
			f.noteErr(err)
			select {
			case <-f.stop:
				return
			case <-time.After(250 * time.Millisecond):
			}
		}
	}
}

// pullOnce issues one pull at the shard's current position and applies
// whatever comes back. It returns the number of frames applied. A
// successful exchange renews the liveness lease; a response from an
// OLDER journal epoch than ours is refused — that primary is a zombie a
// newer promotion has fenced, and folding its frames (or worse, its
// snapshot) would resurrect a superseded keyspace.
func (f *Follower) pullOnce(shard int, wait time.Duration) (int, error) {
	f.mu.Lock()
	rs := f.states[shard]
	primary := f.primary
	f.mu.Unlock()

	u := fmt.Sprintf("%s/api/v1/replica/wal?shard=%d&epoch=%d&from=%d&id=%s&wait=%d",
		primary, shard, rs.Epoch, rs.Applied, url.QueryEscape(f.self), wait.Milliseconds())
	ctx, cancel := context.WithTimeout(f.ctx, wait+15*time.Second)
	defer cancel()
	body, err := exchange(ctx, http.MethodGet, u, nil, nil)
	if err != nil {
		return 0, err
	}
	// The body is journal frames: the decoder that replays a segment at
	// open checks each one's length and CRC — a bit flip in transit or in
	// the primary's ring must not reach this store — and stops at the
	// first bad one. What decoded before it is still applied.
	var resp PullResponse
	entries, bad := decodeFramed(body, &resp)
	if bad != nil && !errors.Is(bad, errBadFrame) {
		return 0, fmt.Errorf("replica: shard %02d pull: %w", shard, bad)
	}
	if resp.Epoch < rs.Epoch {
		return 0, &FencingError{Op: "pull", Local: resp.Epoch, Remote: rs.Epoch}
	}
	if err := f.renewLease(resp.Epoch, resp.LeaseTTLMS); err != nil {
		return 0, err
	}
	if resp.NeedSnapshot {
		return 0, f.bootstrap(shard)
	}
	if len(entries) > 0 && resp.FirstSeq == 0 {
		return 0, fmt.Errorf("replica: shard %02d pull: %d frames and no first_seq", shard, len(entries))
	}
	applied := 0
	for i, e := range entries {
		seq := resp.FirstSeq + uint64(i)
		if seq <= rs.Applied {
			continue // idempotent re-delivery
		}
		if seq != rs.Applied+1 {
			break // gap: re-pull from the persisted position
		}
		if err = f.stores[shard].ApplyReplicated(e); err != nil {
			err = fmt.Errorf("replica: shard %02d frame %d: %w", shard, seq, err)
			break
		}
		rs.Applied = seq
		applied++
	}
	if err == nil && bad != nil {
		err = fmt.Errorf("replica: shard %02d pull from %d: %w", shard, resp.FirstSeq, bad)
	}
	if applied > 0 {
		// The unsynced checkpoint: this write sits between the apply and
		// the pull that acknowledges it.
		err = errors.Join(err, f.update(shard, false, func(s *replState) { s.Applied = rs.Applied }))
	}
	return applied, err
}

// bootstrap installs a primary snapshot: local records not in the image
// are deleted, every snapshot entry is folded in (exact bytes), and the
// shard's position jumps to the snapshot's (epoch, seq). A snapshot from
// an OLDER epoch than the shard's position is refused — never resurrect
// a fenced generation. On a demoted ex-primary, local records the image
// would silently drop or rewrite are first quarantined as a divergence
// record: the unshipped WAL tail of the old generation is truncated into
// auditable residue, not lost.
func (f *Follower) bootstrap(shard int) error {
	f.mu.Lock()
	primary := f.primary
	cur := f.states[shard]
	demoted := f.demotedFrom
	f.mu.Unlock()
	ctx, cancel := context.WithTimeout(f.ctx, 60*time.Second)
	defer cancel()
	u := fmt.Sprintf("%s/api/v1/replica/snapshot?shard=%d", primary, shard)
	body, err := exchange(ctx, http.MethodGet, u, nil, nil)
	if err != nil {
		return err
	}
	// One bad frame refuses the image whole, before anything is pruned.
	var snap SnapshotResponse
	entries, err := decodeFramed(body, &snap)
	if err != nil {
		return fmt.Errorf("replica: shard %02d snapshot: %w", shard, err)
	}
	if snap.Epoch < cur.Epoch {
		return &FencingError{Op: "snapshot", Local: snap.Epoch, Remote: cur.Epoch}
	}
	f.noteContact()
	sst := f.stores[shard]
	image := make(map[history.RecordKey][]byte, len(entries))
	for _, e := range entries {
		image[e.Key()] = e.Data
	}
	if demoted != 0 {
		if err := quarantineDivergence(sst, shard, demoted, snap.Epoch, image); err != nil {
			return fmt.Errorf("replica: shard %02d divergence record: %w", shard, err)
		}
	}
	for _, k := range sst.Keys() {
		if _, ok := image[k]; ok {
			continue
		}
		if err := sst.Delete(k.App, k.Version, k.RunID); err != nil {
			return fmt.Errorf("replica: shard %02d snapshot prune %s: %w", shard, k, err)
		}
	}
	for _, e := range entries {
		if err := sst.ApplyReplicated(e); err != nil {
			return fmt.Errorf("replica: shard %02d snapshot %s: %w", shard, e.Key(), err)
		}
	}
	// The position jumps to the image's; promotion and the demotion
	// record are the shard's own and survive the jump.
	return f.update(shard, true, func(s *replState) {
		*s = replState{Epoch: snap.Epoch, Applied: snap.Seq, Promoted: s.Promoted, Primary: primary, DemotedFrom: s.DemotedFrom}
	})
}

// update is the one way a shard's replState changes after NewFollower:
// mutate edits it under f.mu and the result is written to STATE.json
// before the lock is released, so one shard's writes never reorder and
// an apply loop never un-persists a racing promotion. Every role change
// is durable (fsynced); only the per-batch applied position is not (see
// checkpointState). The in-memory state advances even when the write
// fails — the error goes back to the caller to record.
func (f *Follower) update(shard int, durable bool, mutate func(*replState)) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.updateLocked(shard, durable, mutate)
}

func (f *Follower) updateLocked(shard int, durable bool, mutate func(*replState)) error {
	mutate(&f.states[shard])
	write := saveState
	if !durable {
		write = checkpointState
	}
	if err := write(f.stores[shard].Dir(), f.states[shard]); err != nil {
		return fmt.Errorf("replica: shard %02d persist state: %w", shard, err)
	}
	return nil
}

// noteContact marks a successful exchange with the primary.
func (f *Follower) noteContact() {
	f.mu.Lock()
	f.lastContact = time.Now()
	f.suspect = false
	f.mu.Unlock()
}

// renewLease marks a successful exchange with the primary and adopts
// its lease grant (grantMS > 0) under the epoch it arrived with,
// persisting it on every shard whose recorded lease it changes. A grant
// that failed to persist still holds in memory.
func (f *Follower) renewLease(epoch uint64, grantMS int64) error {
	f.noteContact()
	if grantMS <= 0 {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.leaseTTL = time.Duration(grantMS) * time.Millisecond
	var err error
	for i := range f.states {
		if ls := f.states[i].Lease; ls == nil || ls.Epoch != epoch || ls.TTLMS != grantMS {
			err = errors.Join(err, f.updateLocked(i, true, func(s *replState) { s.Lease = &leaseState{Epoch: epoch, TTLMS: grantMS} }))
		}
	}
	return err
}

// leaseWindow returns the effective suspicion threshold: the primary's
// grant when it has made one, the local config otherwise.
func (f *Follower) leaseWindow() time.Duration {
	if f.leaseTTL > 0 {
		return f.leaseTTL
	}
	return f.cfg.LeaseTTL
}

// monitorLoop is the failure detector: every heartbeat window it checks
// how long ago the primary was last heard from; once the lease expires
// it declares the primary suspect and runs the promotion election.
// While healthy it periodically refreshes the electorate from the
// primary's info handshake.
func (f *Follower) monitorLoop() {
	t := time.NewTicker(f.cfg.HeartbeatEvery)
	defer t.Stop()
	tick := 0
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
		}
		if f.AnyPromoted() {
			return // this node is the primary now; nothing to detect
		}
		f.mu.Lock()
		age := time.Since(f.lastContact)
		ttl := f.leaseWindow()
		primary := f.primary
		f.mu.Unlock()
		if age <= ttl {
			f.setSuspect(false)
			if tick%8 == 0 {
				f.refreshMembership(primary)
			}
			tick++
			continue
		}
		f.setSuspect(true)
		f.tryFailover()
	}
}

func (f *Follower) setSuspect(v bool) {
	f.mu.Lock()
	f.suspect = v
	f.mu.Unlock()
}

// refreshMembership learns the electorate (and the deployment's
// replica count) from the primary while it is still healthy, so the
// election can reach the other followers after the primary is gone.
func (f *Follower) refreshMembership(primary string) {
	for _, info := range probe(f.ctx, []string{primary}, f.self, 2*time.Second) {
		f.mu.Lock()
		for _, id := range info.Followers {
			if id != "" && id != f.self {
				f.members[id] = true
			}
		}
		if info.Replicas > f.cfg.Replicas {
			f.cfg.Replicas = info.Replicas
		}
		f.mu.Unlock()
	}
}

// electorate returns the other followers this node knows about.
func (f *Follower) electorate() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.members))
	for id := range f.members {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// tryFailover runs one election round with the primary suspect:
//
//   - The suspected primary gets one last direct probe first. A lease
//     can lapse without a crash — a stalled scheduler or a burst of
//     dropped long-polls looks identical from the pull loop — and a
//     primary that still answers is not dead: the round ends and the
//     lease renews. Only an unreachable or demoted primary lets the
//     election proceed.
//   - If any reachable peer already carries a higher epoch and claims
//     the primary role, adopt it — the election is over.
//   - Otherwise this node may self-promote only if (a) it can see a
//     majority of the electorate (a partitioned minority never
//     promotes), (b) every visible peer also finds the primary suspect
//     (someone who still hears the primary vetoes the round), and (c)
//     it is the most caught up, ties broken by smallest advertise URL —
//     deterministic, so concurrent rounds pick the same winner.
func (f *Follower) tryFailover() {
	if f.primaryStillAlive() {
		return
	}
	peers := f.electorate()
	myApplied := f.AppliedTotal()
	myEpoch := f.Epoch()
	seen := probe(f.ctx, peers, f.self, 2*time.Second)
	for _, info := range seen {
		if info.Epoch > myEpoch && info.ClaimsPrimary() {
			// A newer primary already won: follow it.
			if err := f.retarget(info.id); err != nil {
				f.noteErr(err)
			}
			return
		}
		if !info.Suspect && !info.ClaimsPrimary() {
			// That peer still hears the primary; do not promote yet.
			return
		}
		if info.AppliedSeq > myApplied || (info.AppliedSeq == myApplied && info.id < f.self) {
			// A better-placed candidate exists; let it win this round.
			return
		}
	}
	n := len(peers) + 1
	f.mu.Lock()
	if f.cfg.Replicas > n {
		n = f.cfg.Replicas
	}
	f.mu.Unlock()
	if len(seen)+1 < n/2+1 {
		return // partitioned minority
	}
	// The election win: Promote bumps the journal epoch past every
	// generation this node has seen — the bump is what fences the old
	// primary — persists the role and opens the keyspace for writes.
	if _, err := f.Promote(-1); err != nil {
		f.noteErr(err)
	}
}

// primaryStillAlive is the election's last-gasp probe of the node it
// is about to depose. Suspicion is circumstantial — it only says no
// pull renewed the lease lately, which a starved process observes just
// as readily as a crashed primary's survivor does. Deposing a live
// primary splits the brain, so the definitive check runs right before
// any election move: if the suspected primary answers and still claims
// the primary role, the suspicion was false, the lease renews, and no
// election happens. A SIGKILLed primary's port refuses instantly, so
// the probe costs a real failover nothing.
func (f *Follower) primaryStillAlive() bool {
	seen := probe(f.ctx, []string{f.PrimaryURL()}, f.self, 2*time.Second)
	if len(seen) == 0 || !seen[0].ClaimsPrimary() {
		// No answer — or it answered, but it is nobody's primary anymore:
		// a demoted zombie is no reason to hold the election back.
		return false
	}
	f.noteContact()
	return true
}

// retarget repoints every unpromoted shard at a new primary (the
// election winner). The pull loops pick the new URL up on their next
// iteration; the epoch change redirects them into a snapshot bootstrap.
// A pointer that failed to persist still holds in memory (a restart
// would follow the old primary).
func (f *Follower) retarget(primary string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.primary == primary {
		return nil
	}
	f.primary = primary
	f.lastContact = time.Now() // grace period against the new primary
	f.suspect = false
	var err error
	for i := range f.states {
		if !f.states[i].Promoted {
			err = errors.Join(err, f.updateLocked(i, true, func(s *replState) { s.Primary = primary }))
		}
	}
	return err
}

// Rejoin demotes this node into a follower of primary: every shard gives
// up its ownership, recording the generation it owned as DemotedFrom — a
// promoted shard its state epoch, a shard of an original primary its own
// journal epoch — so public writes to any of them are refused with the
// typed fencing error from here on, and the next snapshot bootstrap
// quarantines whatever the old generation wrote that the new one does
// not hold. The daemon calls this at startup when the info handshake
// reveals a newer epoch.
func (f *Follower) Rejoin(primary string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.primary = primary
	f.lastContact = time.Now()
	for i := range f.states {
		err := f.updateLocked(i, true, func(rs *replState) {
			if rs.Promoted {
				rs.DemotedFrom, rs.Promoted = rs.Epoch, false
			} else if w := f.stores[i].WAL(); w != nil && rs.DemotedFrom == 0 {
				rs.DemotedFrom = w.Epoch()
			}
			if rs.DemotedFrom > f.demotedFrom {
				f.demotedFrom = rs.DemotedFrom
			}
			rs.Primary = primary
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// quarantineDivergence sets aside, before a demoted ex-primary's
// bootstrap prunes or rewrites them, every local record the new
// generation's image (key → stored bytes) does not contain
// byte-identically — the observable remains of the old generation's
// unshipped WAL tail. The record lands in quarantine/ as a DIVERGENCE
// file with a REPORT.txt line, where pcfsck surfaces it as residue.
func quarantineDivergence(sst *history.Store, shard int, demotedEpoch, adoptedEpoch uint64, image map[history.RecordKey][]byte) error {
	type divergedRecord struct {
		Key    Key             `json:"key"`
		Reason string          `json:"reason"`
		Record json.RawMessage `json:"record,omitempty"`
	}
	var diverged []divergedRecord
	for _, k := range sst.Keys() {
		rec, err := sst.Load(k.App, k.Version, k.RunID)
		if err != nil {
			continue
		}
		// Both sides are stored bytes, from the one encoder.
		local := history.StoredEntry(rec).Data
		reason := "record differs from the new primary's image"
		if img, ok := image[k]; !ok {
			reason = "record absent from the new primary's image"
		} else if bytes.Equal(local, img) {
			continue
		}
		diverged = append(diverged, divergedRecord{Key: Key(k), Reason: reason, Record: local})
	}
	if len(diverged) == 0 {
		return nil
	}
	qdir := filepath.Join(sst.Dir(), history.QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("DIVERGENCE-e%d-to-e%d.json", demotedEpoch, adoptedEpoch)
	payload := struct {
		DemotedEpoch uint64           `json:"demoted_epoch"`
		AdoptedEpoch uint64           `json:"adopted_epoch"`
		Shard        int              `json:"shard"`
		Records      []divergedRecord `json:"records"`
	}{DemotedEpoch: demotedEpoch, AdoptedEpoch: adoptedEpoch, Shard: shard, Records: diverged}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(qdir, name), append(data, '\n'), 0o644); err != nil {
		return err
	}
	rf, err := os.OpenFile(filepath.Join(qdir, "REPORT.txt"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer rf.Close()
	_, err = fmt.Fprintf(rf, "%s\t%s\n", name,
		fmt.Sprintf("replica: %d record(s) from fenced epoch %d truncated at rejoin under epoch %d", len(diverged), demotedEpoch, adoptedEpoch))
	return err
}

func (f *Follower) noteErr(err error) {
	f.mu.Lock()
	f.lastErr = err.Error()
	f.mu.Unlock()
}

// Promote hands shard (or every shard, with shard == -1) to this
// follower: a bounded final catch-up pull drains what the primary can
// still serve, then the shard bumps its journal epoch past every
// generation this node has seen — fencing the old primary — and
// accepts writes. Idempotent; persisted, so the role survives restart.
// Returns the shards now owned.
func (f *Follower) Promote(shard int) ([]int, error) {
	promoted, _, err := f.promote(shard)
	return promoted, err
}

func (f *Follower) promote(shard int) ([]int, uint64, error) {
	if shard >= len(f.stores) {
		return nil, 0, fmt.Errorf("replica: no shard %d", shard)
	}
	targets := []int{shard}
	if shard < 0 {
		targets = targets[:0]
		for i := range f.stores {
			targets = append(targets, i)
		}
	}
	// The new epoch strictly dominates every generation this node has
	// seen: the positions it replicated (state epochs) and its own
	// journal generations — so the fence orders after both the dead
	// primary and any earlier life of this node.
	var newEpoch uint64
	f.mu.Lock()
	for i := range f.stores {
		if e := f.states[i].Epoch; e > newEpoch {
			newEpoch = e
		}
		if w := f.stores[i].WAL(); w != nil && w.Epoch() > newEpoch {
			newEpoch = w.Epoch()
		}
	}
	f.mu.Unlock()
	newEpoch++
	var promoted []int
	bumped := false
	for _, i := range targets {
		f.mu.Lock()
		already := f.states[i].Promoted
		f.mu.Unlock()
		if already {
			promoted = append(promoted, i)
			continue
		}
		// Final catch-up, best-effort: the primary may already be dead,
		// in which case whatever was applied — which, under the write
		// gate, includes every acknowledged write — is the keyspace.
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			n, err := f.pullOnce(i, 0)
			if err != nil || n == 0 {
				break
			}
		}
		if w := f.stores[i].WAL(); w != nil && newEpoch > w.Epoch() {
			if err := w.SetEpoch(newEpoch); err != nil {
				return promoted, newEpoch, fmt.Errorf("replica: shard %02d bump epoch: %w", i, err)
			}
		}
		err := f.update(i, true, func(rs *replState) {
			rs.Promoted = true
			rs.Epoch = newEpoch
			rs.DemotedFrom = 0 // legitimate owner again
		})
		if err != nil {
			return promoted, newEpoch, err
		}
		bumped = true
		promoted = append(promoted, i)
	}
	if bumped {
		f.promotions.Add(1)
		f.mu.Lock()
		cb := f.cfg.OnPromote
		f.mu.Unlock()
		if cb != nil {
			cb(newEpoch)
		}
	}
	return promoted, newEpoch, nil
}

// Writable reports whether this node may accept a public write for
// (app, version): nil once the owning shard has been promoted, an error
// while the shard is still replicating (the server answers 503 and the
// client retries — against the promoted holder, eventually). On a
// demoted ex-primary the refusal is the typed fencing error (409, not
// retried): a client still pointed at the zombie must fail loudly, not
// spin.
func (f *Follower) Writable(app, version string) error {
	shard := history.ShardForKey(app, version, len(f.stores))
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.states[shard].Promoted {
		return nil
	}
	if from := f.states[shard].DemotedFrom; from != 0 {
		f.fencingRejects.Add(1)
		return &FencingError{Op: "write", Local: from, Remote: f.states[shard].Epoch}
	}
	return fmt.Errorf("replica: shard %02d is a read-only follower (not promoted)", shard)
}

// AnyPromoted reports whether any shard has been promoted — the node
// is (at least partially) a primary.
func (f *Follower) AnyPromoted() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, rs := range f.states {
		if rs.Promoted {
			return true
		}
	}
	return false
}

// Epoch returns the node's highest known journal epoch.
func (f *Follower) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var max uint64
	for _, rs := range f.states {
		if rs.Epoch > max {
			max = rs.Epoch
		}
	}
	return max
}

// AppliedTotal sums applied positions across shards — the election's
// most-caught-up metric.
func (f *Follower) AppliedTotal() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var sum uint64
	for _, rs := range f.states {
		sum += rs.Applied
	}
	return sum
}

// Suspect reports whether the failure detector currently considers the
// primary dead.
func (f *Follower) Suspect() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.suspect
}

// Self returns this node's advertised URL.
func (f *Follower) Self() string { return f.self }

// PrimaryURL returns the primary this follower currently tracks.
func (f *Follower) PrimaryURL() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.primary
}

// HandlePromote serves POST /api/v1/replica/promote.
func (f *Follower) HandlePromote(w http.ResponseWriter, r *http.Request) {
	var req PromoteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decode promote request: %v", err))
		return
	}
	promoted, epoch, err := f.promote(req.Shard)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeWire(w, http.StatusOK, PromoteResponse{Promoted: promoted, Epoch: epoch})
}

// HandleOp serves POST /api/v1/replica/op — the redirected store
// operations a primary's failover seam sends. Reads are always served,
// each record as the put frame of its stored bytes; an apply requires
// the shard to have been promoted first (the seam promotes before it
// writes) and commits the entries the sender's own shard store would
// have — refused whole, before anything is written, if one frame of the
// body is bad or one entry does not check out.
func (f *Follower) HandleOp(w http.ResponseWriter, r *http.Request) {
	var req OpRequest
	var entries []history.WALEntry
	body, err := readBody(r.Body, r.ContentLength)
	if err == nil {
		entries, err = decodeFramed(body, &req)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decode op request: %v", err))
		return
	}
	if req.Shard < 0 || req.Shard >= len(f.stores) {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("no shard %d", req.Shard))
		return
	}
	sst := f.stores[req.Shard]
	var resp OpResponse
	var stored []history.WALEntry
	switch req.Op {
	case "apply":
		f.mu.Lock()
		promoted := f.states[req.Shard].Promoted
		epoch := f.states[req.Shard].Epoch
		f.mu.Unlock()
		if !promoted {
			httpError(w, http.StatusServiceUnavailable, fmt.Sprintf("shard %02d is not promoted; refusing replicated write", req.Shard))
			return
		}
		// A write stamped with a generation older than the shard's is a
		// zombie primary's seam still flushing: refuse with the typed
		// fencing error so it cannot mutate a keyspace a newer promotion
		// owns. Unstamped (epoch 0) ops predate fencing and pass.
		if req.Epoch != 0 && req.Epoch < epoch {
			f.fencingRejects.Add(1)
			httpError(w, http.StatusConflict, (&FencingError{Op: "op apply", Local: req.Epoch, Remote: epoch}).Error())
			return
		}
		resp.Saved, err = sst.Apply(entries)
	case "load":
		var rec *history.RunRecord
		if rec, err = sst.Load(req.App, req.Version, req.RunID); err == nil {
			stored = []history.WALEntry{history.StoredEntry(rec)}
		}
	case "loadall":
		var recs []*history.RunRecord
		recs, err = sst.LoadAll(req.App, req.Version)
		for _, rec := range recs {
			stored = append(stored, history.StoredEntry(rec))
		}
	case "keys":
		for _, k := range sst.Keys() {
			resp.Keys = append(resp.Keys, Key(k))
		}
	case "len":
		resp.Len = sst.Len()
	default:
		err = fmt.Errorf("unknown op %q", req.Op)
	}
	var frames [][]byte
	if err == nil {
		frames, err = encodeFrames(stored)
	}
	if err != nil {
		// What the seam's exchange maps back: a miss, storage trouble, or
		// a request this store will never take.
		status := http.StatusBadRequest
		if errors.Is(err, os.ErrNotExist) {
			status = http.StatusNotFound
		} else if history.IsBackendError(err) {
			status = http.StatusServiceUnavailable
		}
		httpError(w, status, err.Error())
		return
	}
	_ = writeFrames(w, resp, frames) // fails only when the sender is gone
}

// Stats snapshots the follower's replication gauges.
func (f *Follower) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := Stats{
		Role:           "follower",
		LeaseAgeMS:     -1,
		Suspect:        f.suspect,
		FencingRejects: f.fencingRejects.Load(),
		LastError:      f.lastErr,
	}
	if !f.lastContact.IsZero() {
		out.LeaseAgeMS = time.Since(f.lastContact).Milliseconds()
	}
	for i, rs := range f.states {
		if rs.Epoch > out.Epoch {
			out.Epoch = rs.Epoch
		}
		out.Shards = append(out.Shards, ShardReplStats{
			Shard:      i,
			Epoch:      rs.Epoch,
			AppliedSeq: rs.Applied,
			Promoted:   rs.Promoted,
		})
	}
	return out
}
