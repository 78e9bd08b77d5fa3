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
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/history"
)

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
}

// cadence fills in a lease window and the tick that watches it: three
// seconds, and the given fraction of the window but never under 25ms.
func cadence(ttl, every time.Duration, fraction time.Duration) (time.Duration, time.Duration) {
	if ttl <= 0 {
		ttl = 3 * time.Second
	}
	if every <= 0 {
		every = ttl / fraction
	}
	return ttl, max(every, 25*time.Millisecond)
}

// maxApplyRun bounds the entries a follower folds as one commit: a pull
// may answer hundreds of frames after an outage, and a commit holds the
// journal frames of all its entries at once.
const maxApplyRun = 32

// Follower is the side of a node that replicates: per shard it follows,
// a pull loop long-polls the owner's WAL endpoint, CRC-verifies and folds
// frames through Store.ApplyRun, and reports what it saw to the
// node's ownership table — an answered pull, an applied position, an
// installed snapshot. Its monitor turns a lapsed lease into an election,
// its promote endpoint an operator's or a seam's request into a forced
// one; either way the shard becomes this node's through the table's one
// stand transition, and its loop ends.
type Follower struct {
	self   string // this node's advertised URL, the registry id
	stores []*history.Store
	tab    *table
	ctx    context.Context // canceled by Stop: ends the loops, aborts in-flight pulls
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	lastErr  string
	pollWait time.Duration
	cfg      AutoConfig // HeartbeatEvery > 0 once automatic failover is armed
	members  peerSet    // learned electorate (advertise URLs, incl peers)

	fencingRejects atomic.Uint64
}

// NewFollower builds a follower of primaryURL over the local storage
// layout. selfURL is the address the primary (and its failover seam)
// can reach this node at; it doubles as the follower's registry id.
// Previously persisted rows — including ownership — are reloaded, so a
// restarted promoted follower stays writable.
func NewFollower(primaryURL, selfURL string, st history.Storage) (*Follower, error) {
	stores, err := StoreShards(st)
	if err != nil {
		return nil, err
	}
	f := &Follower{
		self:     selfURL,
		stores:   stores,
		pollWait: 20 * time.Second,
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	s := state{self: selfURL}
	for i, sst := range stores {
		dir := sst.Dir()
		if dir == "" {
			return nil, fmt.Errorf("replica: shard %02d has no directory (follower needs a filesystem store)", i)
		}
		rs, err := loadState(dir)
		if err != nil {
			return nil, fmt.Errorf("replica: shard %02d state: %w", i, err)
		}
		r, resync := bootRow(rs, journalEpoch(sst), primaryURL)
		if cols, _ := r.columns(); resync {
			if err := writeState(dir, cols); err != nil {
				return nil, fmt.Errorf("replica: shard %02d state: %w", i, err)
			}
		}
		s.rows = append(s.rows, r)
	}
	f.tab = newTable(stores, nil, true, s)
	return f, nil
}

// SetAutoFailover arms the heartbeat/lease failure detector: Start will
// launch a monitor goroutine alongside the pull loops, and the pull
// long-poll is capped at the heartbeat interval so a caught-up follower
// still refreshes its lease every window.
func (f *Follower) SetAutoFailover(cfg AutoConfig) {
	cfg.LeaseTTL, cfg.HeartbeatEvery = cadence(cfg.LeaseTTL, cfg.HeartbeatEvery, 6)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cfg = cfg
	f.learn(cfg.Peers)
	f.pollWait = min(f.pollWait, cfg.HeartbeatEvery)
	f.tab.apply(event{kind: evArm, lease: cfg.LeaseTTL})
}

// Start launches one pull loop per shard the node follows, plus the
// monitor when automatic failover is armed.
func (f *Follower) Start() {
	f.tab.apply(event{kind: evArm})
	for _, i := range f.tab.read().following() {
		f.wg.Add(1)
		go func(shard int) {
			defer f.wg.Done()
			f.pullLoop(shard)
		}(i)
	}
	if f.cfg.HeartbeatEvery > 0 {
		everyTick(f.ctx, &f.wg, f.cfg.HeartbeatEvery, f.monitor)
	}
}

// Stop halts every pull loop and waits for them.
func (f *Follower) Stop() {
	f.cancel()
	f.wg.Wait()
}

// pullLoop replicates one shard until stop, or until the node stops
// following it.
func (f *Follower) pullLoop(shard int) {
	for f.ctx.Err() == nil && f.tab.read().rows[shard].role == roleFollowing {
		if _, err := f.pullOnce(shard, f.pollWait); err != nil {
			f.noteErr(err)
			select {
			case <-f.ctx.Done():
			case <-time.After(250 * time.Millisecond):
			}
		}
	}
}

// pullOnce issues one pull at the shard's current position and applies
// whatever comes back. It returns the number of frames applied. A
// successful exchange renews the liveness lease; a response from an
// OLDER journal epoch than ours is refused — that peer is a zombie a
// newer claim has fenced, and folding its frames (or worse, its
// snapshot) would resurrect a superseded keyspace.
func (f *Follower) pullOnce(shard int, wait time.Duration) (int, error) {
	r := f.tab.read().rows[shard]
	u := fmt.Sprintf("%s/api/v1/replica/wal?shard=%d&epoch=%d&from=%d&id=%s&wait=%d",
		r.peer, shard, r.epoch, r.applied, url.QueryEscape(f.self), wait.Milliseconds())
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
	if resp.Epoch < r.epoch {
		return 0, &FencingError{Op: "pull", Local: resp.Epoch, Remote: r.epoch}
	}
	// A grant that failed to persist still holds in memory.
	lease := time.Duration(resp.LeaseTTLMS) * time.Millisecond
	if _, _, err := f.tab.apply(event{kind: evPulled, shard: shard, epoch: resp.Epoch, lease: lease}); err != nil {
		return 0, err
	}
	if resp.NeedSnapshot {
		return 0, f.bootstrap(shard)
	}
	if len(entries) > 0 && resp.FirstSeq == 0 {
		return 0, fmt.Errorf("replica: shard %02d pull: %d frames and no first_seq", shard, len(entries))
	}
	// The frames that continue this shard's position — past the ones
	// delivered before; none when the first is a gap, which is re-pulled
	// from the persisted position — are folded as commits of up to
	// maxApplyRun entries: a primary's batch costs the follower what it
	// cost the primary, one journal sync and one directory sync, and the
	// quorum gate waits for one commit.
	var run []history.WALEntry
	if skip := r.applied + 1 - resp.FirstSeq; resp.FirstSeq <= r.applied+1 && skip < uint64(len(entries)) {
		run = entries[skip:]
	}
	pos := r.applied
	for len(run) > 0 && err == nil {
		n := min(len(run), maxApplyRun)
		if n, err = f.stores[shard].ApplyRun(run[:n]); err != nil {
			err = fmt.Errorf("replica: shard %02d frame %d: %w", shard, pos+uint64(n)+1, err)
		}
		run, pos = run[n:], pos+uint64(n)
	}
	applied := int(pos - r.applied)
	if err == nil && bad != nil {
		err = fmt.Errorf("replica: shard %02d pull from %d: %w", shard, resp.FirstSeq, bad)
	}
	if applied > 0 {
		_, _, perr := f.tab.apply(event{kind: evApplied, shard: shard, applied: pos})
		err = errors.Join(err, perr)
	}
	return applied, err
}

// bootstrap installs the owner's snapshot: local records not in the image
// are deleted, every snapshot entry is folded in (exact bytes, a commit
// per maxApplyRun entries), and the shard's position jumps to the
// snapshot's (epoch, seq). A snapshot from an OLDER epoch than the
// shard's position is refused — never resurrect a fenced generation. On a
// shard this node once owned, local records the image would silently drop
// or rewrite are first quarantined as a divergence record: the unshipped
// WAL tail of the old generation is truncated into auditable residue, not
// lost.
func (f *Follower) bootstrap(shard int) error {
	cur := f.tab.read().rows[shard]
	ctx, cancel := context.WithTimeout(f.ctx, 60*time.Second)
	defer cancel()
	u := fmt.Sprintf("%s/api/v1/replica/snapshot?shard=%d", cur.peer, shard)
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
	if snap.Epoch < cur.epoch {
		return &FencingError{Op: "snapshot", Local: snap.Epoch, Remote: cur.epoch}
	}
	sst := f.stores[shard]
	image := make(map[history.RecordKey][]byte, len(entries))
	for _, e := range entries {
		image[e.Key()] = e.Data
	}
	if cur.demoted != 0 {
		if err := quarantineDivergence(sst, shard, cur.demoted, snap.Epoch, image); err != nil {
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
	// Folded as a pull is: commits of up to maxApplyRun entries.
	for run := entries; len(run) > 0; {
		n, err := sst.ApplyRun(run[:min(len(run), maxApplyRun)])
		if err != nil {
			return fmt.Errorf("replica: shard %02d snapshot %s: %w", shard, run[n].Key(), err)
		}
		run = run[n:]
	}
	_, _, err = f.tab.apply(event{kind: evInstalled, shard: shard, epoch: snap.Epoch, applied: snap.Seq, peer: cur.peer})
	return err
}

// monitor is the failure detector: every heartbeat window it asks the
// table whether the lease on a peer this node follows has lapsed, and runs
// an election round for that peer's shards when it has. While healthy it
// periodically refreshes the electorate from the owner's info handshake.
// It runs for the life of the follower: a node that owns some shards keeps
// watching the owner of the rest.
func (f *Follower) monitor(tick int) {
	st, fx, _ := f.tab.apply(event{kind: evTick})
	if len(fx) > 0 {
		f.tryFailover()
	} else if shards := st.following(); tick%8 == 0 && len(shards) > 0 {
		f.refreshMembership(st.rows[shards[0]].peer)
	}
}

// learn adds ids to the electorate. Callers hold f.mu.
func (f *Follower) learn(ids []string) {
	for _, id := range ids {
		if id != f.self {
			f.members.add(id)
		}
	}
}

// refreshMembership learns the electorate (and the deployment's
// replica count) from the primary while it is still healthy, so the
// election can reach the other followers after the primary is gone.
func (f *Follower) refreshMembership(primary string) {
	for _, info := range probe(f.ctx, []string{primary}, f.self, len(f.stores), 2*time.Second) {
		f.mu.Lock()
		f.learn(info.Followers)
		f.cfg.Replicas = max(f.cfg.Replicas, info.Replicas)
		f.mu.Unlock()
	}
}

// tryFailover runs one election round for the shards whose peer went
// quiet. Those peers get one last direct probe first: deposing a live
// owner splits the brain, so the definitive check runs right before any
// election move (a SIGKILLed primary's port refuses instantly, so the
// probe costs a real failover nothing). Then the electorate's ballots go
// to the table, which decides (role.go, elected).
func (f *Follower) tryFailover() {
	st := f.tab.read()
	var quiet []string
	for _, i := range st.suspects() {
		quiet = append(quiet, st.rows[i].peer)
	}
	for _, info := range probe(f.ctx, quiet, f.self, len(f.stores), 2*time.Second) {
		f.tab.apply(event{kind: evProbed, peer: info.url, claims: info.Owned})
	}
	shards := f.tab.read().suspects()
	if len(shards) == 0 {
		return
	}
	f.mu.Lock()
	peers := slices.Clone(f.members)
	nodes := max(len(peers)+1, f.cfg.Replicas)
	f.mu.Unlock()
	ballots := probe(f.ctx, peers, f.self, len(f.stores), 2*time.Second)
	if _, _, err := f.tab.apply(event{kind: evStand, shards: shards, ballots: ballots, nodes: nodes}); err != nil {
		f.noteErr(err)
	}
}

// Rejoin is the start-up of a node that found some of its shards claimed
// under a newer epoch while it was down: each claimed shard follows its
// winner from here on, recording the generation this node owned — so
// public writes to it are refused with the typed fencing error, and the
// next snapshot bootstrap quarantines whatever the old generation wrote
// that the new one does not hold — and the node stands for the rest,
// which nobody took.
func (f *Follower) Rejoin(claims []Superseded) error {
	var err error
	claimed := make(map[int]bool)
	for _, c := range claims {
		if c.Shard >= len(f.stores) {
			return fmt.Errorf("replica: %s claims shard %d of %d", c.Winner, c.Shard, len(f.stores))
		}
		claimed[c.Shard] = true
		_, _, rerr := f.tab.apply(event{kind: evRejoin, shard: c.Shard, peer: c.Winner, epoch: journalEpoch(f.stores[c.Shard]), claims: []Claim{c.Claim}})
		err = errors.Join(err, rerr)
	}
	var rest []int
	for i := range f.stores {
		if !claimed[i] {
			rest = append(rest, i)
		}
	}
	_, _, serr := f.tab.apply(event{kind: evStand, shards: rest, forced: true})
	return errors.Join(err, serr)
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

// Promote hands shard (or every shard, with shard == -1) to this node on
// an operator's or a seam's word: a bounded final catch-up pull drains
// what the owner can still serve, then the node stands for it unopposed —
// the bumped epoch fences the old owner. Idempotent; persisted, so the
// role survives restart. Answers the shards of the request now owned and
// the newest epoch among them.
func (f *Follower) Promote(shard int) (resp PromoteResponse, err error) {
	if shard >= len(f.stores) {
		return resp, fmt.Errorf("replica: no shard %d", shard)
	}
	shards := []int{shard}
	if shard < 0 {
		shards = shards[:0]
		for i := range f.stores {
			shards = append(shards, i)
		}
	}
	for _, i := range shards {
		// Best-effort: the owner may already be dead, in which case whatever
		// was applied — which, under the write gate, includes every
		// acknowledged write — is the keyspace.
		deadline := time.Now().Add(2 * time.Second)
		for f.tab.read().rows[i].role == roleFollowing && time.Now().Before(deadline) {
			if n, err := f.pullOnce(i, 0); err != nil || n == 0 {
				break
			}
		}
	}
	st, _, err := f.tab.apply(event{kind: evStand, shards: shards, forced: true})
	for _, i := range shards {
		if r := st.rows[i]; r.role == roleOwner {
			resp.Promoted = append(resp.Promoted, i)
			resp.Epoch = max(resp.Epoch, r.epoch)
		}
	}
	return resp, err
}

// Writable reports whether this node may accept a public write for
// (app, version) — the table's answer for the owning shard.
func (f *Follower) Writable(app, version string) error {
	err := f.tab.read().writable(history.ShardForKey(app, version, len(f.stores)))
	if errors.Is(err, ErrFenced) {
		f.fencingRejects.Add(1)
	}
	return err
}

// HandlePromote serves POST /api/v1/replica/promote.
func (f *Follower) HandlePromote(w http.ResponseWriter, r *http.Request) {
	var req PromoteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decode promote request: %v", err))
		return
	}
	resp, err := f.Promote(req.Shard)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeWire(w, http.StatusOK, resp)
}

// HandleOp serves POST /api/v1/replica/op — the redirected store
// operations a primary's failover seam sends. Reads are always served,
// each record as the put frame of its stored bytes; an apply requires
// the node to own the shard (the seam promotes before it writes) and
// commits the entries the sender's own shard store would have — refused
// whole, before anything is written, if one frame of the body is bad or
// one entry does not check out.
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
		row := f.tab.read().rows[req.Shard]
		if row.role != roleOwner {
			httpError(w, http.StatusServiceUnavailable, fmt.Sprintf("shard %02d is not promoted; refusing replicated write", req.Shard))
			return
		}
		// A write stamped with a generation older than the shard's is a
		// zombie primary's seam still flushing: refuse with the typed
		// fencing error so it cannot mutate a keyspace a newer promotion
		// owns. Unstamped (epoch 0) ops predate fencing and pass.
		if req.Epoch != 0 && req.Epoch < row.epoch {
			f.fencingRejects.Add(1)
			httpError(w, http.StatusConflict, (&FencingError{Op: "op apply", Local: req.Epoch, Remote: row.epoch}).Error())
			return
		}
		resp.Saved, err = sst.Apply(entries)
	case "load":
		var e history.WALEntry
		if e, err = sst.LoadEntry(req.App, req.Version, req.RunID); err == nil {
			stored = []history.WALEntry{e}
		}
	case "loadall":
		stored = sst.LoadEntries(req.App, req.Version)
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
