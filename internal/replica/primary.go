package replica

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/history"
)

const (
	// defaultGateTimeout bounds how long a semi-sync write waits for a
	// follower ack before being refused as unavailable.
	defaultGateTimeout = 5 * time.Second
	// defaultFollowerWindow is how recently a follower must have pulled
	// to count as attached (for the gate) or electable (for failover).
	// Followers long-poll with short waits, so an attached follower is
	// never older than a few seconds.
	defaultFollowerWindow = 15 * time.Second
	// maxPullFrames caps one pull response.
	maxPullFrames = 512
	// maxPullWait caps the long-poll a pull may request.
	maxPullWait = 30 * time.Second
	// peersFileName persists the follower registry under the store's
	// replica/ directory, so a primary revived after a crash knows whom
	// to interrogate about a possibly-higher epoch before serving.
	peersFileName = "PEERS.json"
)

// Primary is a node's replication source: one shardLog per shard store,
// fed by the journals' append hooks, served to followers over the pull
// and snapshot endpoints, and consulted by the semi-sync write gate.
type Primary struct {
	stores   []*history.Store
	logs     []*shardLog
	replicas int
	window   time.Duration
	gate     time.Duration
	quorum   int   // follower acks a gated write demands (min 1)
	leaseTTL int64 // milliseconds granted to pullers; 0 = no detector

	// fencedBy, when non-zero, is a newer cluster epoch this primary has
	// observed: every gated write is refused with the typed fencing
	// error from then on. A fenced primary stays fenced until restart,
	// where the startup handshake demotes it to follower.
	fencedBy atomic.Uint64

	asyncWrites    atomic.Uint64
	gateTimeouts   atomic.Uint64
	quorumAcks     atomic.Uint64
	fencingRejects atomic.Uint64

	peersMu   sync.Mutex
	peersPath string // "" = don't persist
	peers     map[string]bool
}

// StoreShards flattens a storage layout into its per-shard stores: a
// plain Store is one shard, a ShardedStore contributes each shard's
// store. Every shard must be open — replication cannot hook a journal
// that never opened.
func StoreShards(st history.Storage) ([]*history.Store, error) {
	switch s := st.(type) {
	case *history.Store:
		return []*history.Store{s}, nil
	case *history.ShardedStore:
		out := make([]*history.Store, s.Shards())
		for i := range out {
			sst, ok := s.Shard(i)
			if !ok {
				return nil, fmt.Errorf("replica: shard %02d is not open", i)
			}
			out[i] = sst
		}
		return out, nil
	}
	return nil, fmt.Errorf("replica: unsupported storage layout %T", st)
}

// NewPrimary builds the replication source over st's shards and hooks
// every journal's append stream. replicas is the follower count the
// deployment expects; with replicas > 0 the write gate is armed.
// Requires a durable (journaled) store.
func NewPrimary(st history.Storage, replicas int) (*Primary, error) {
	stores, err := StoreShards(st)
	if err != nil {
		return nil, err
	}
	p := &Primary{
		stores:   stores,
		replicas: replicas,
		window:   defaultFollowerWindow,
		gate:     defaultGateTimeout,
		quorum:   1,
		peers:    make(map[string]bool),
	}
	for i, s := range stores {
		w := s.WAL()
		if w == nil {
			return nil, fmt.Errorf("replica: shard %02d has no journal (replication requires -wal)", i)
		}
		l := newShardLog(i, w.Epoch())
		p.logs = append(p.logs, l)
		w.SetOnAppend(l.append)
	}
	return p, nil
}

// Shards returns the shard count.
func (p *Primary) Shards() int { return len(p.logs) }

// Replicas returns the expected follower count.
func (p *Primary) Replicas() int { return p.replicas }

// SetQuorum sets how many follower acks the write gate demands (clamped
// to [1, replicas]).
func (p *Primary) SetQuorum(q int) {
	if q < 1 {
		q = 1
	}
	if p.replicas > 0 && q > p.replicas {
		q = p.replicas
	}
	p.quorum = q
}

// Quorum returns the gate's ack quorum.
func (p *Primary) Quorum() int { return p.quorum }

// SetLeaseTTL arms the liveness lease: every pull response grants the
// follower ttl of presumed primary liveness, and followers run their
// failure detector against it.
func (p *Primary) SetLeaseTTL(ttl time.Duration) { p.leaseTTL = ttl.Milliseconds() }

// SetPeersPath enables durable peer discovery: every first-seen
// follower id is persisted to path (replica/PEERS.json under the store),
// so the startup handshake of a revived primary knows whom to ask about
// a newer epoch.
func (p *Primary) SetPeersPath(path string) {
	p.peersMu.Lock()
	defer p.peersMu.Unlock()
	p.peersPath = path
	for _, id := range loadPeers(path) {
		p.peers[id] = true
	}
}

// Fence marks this primary as superseded by epoch: every gated write is
// refused with the typed fencing error until the process restarts and
// rejoins as a follower. Idempotent; only ever raises.
func (p *Primary) Fence(epoch uint64) {
	for {
		cur := p.fencedBy.Load()
		if epoch <= cur {
			return
		}
		if p.fencedBy.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// FencedBy returns the newer epoch that fenced this primary, or 0.
func (p *Primary) FencedBy() uint64 { return p.fencedBy.Load() }

// Epoch returns the node's journal epoch (max across shards).
func (p *Primary) Epoch() uint64 {
	var max uint64
	for _, l := range p.logs {
		if e := l.epochNow(); e > max {
			max = e
		}
	}
	return max
}

// SetEpochs raises every shard log's fencing epoch — the standby
// primary inside a promoted follower calls this so the logs it serves
// pulls from match the bumped journal epoch.
func (p *Primary) SetEpochs(epoch uint64) {
	for _, l := range p.logs {
		l.setEpoch(epoch)
	}
}

// WaitWrite is the semi-sync gate: after a local write, wait until an
// ack quorum of followers has applied up to the shard log's head. With
// no follower ever attached the gate degrades to async (counted) rather
// than refusing every write before the first follower joins; once a
// follower has attached, a lagging or vanished quorum refuses the write
// — so the acked-write set stays a subset of what any quorum member
// holds, and promotion by the most-caught-up follower loses nothing. A
// fenced primary refuses every gated write with the typed fencing
// error.
func (p *Primary) WaitWrite(shard int) error {
	if p.replicas <= 0 || shard < 0 || shard >= len(p.logs) {
		return nil
	}
	// The fence binds only while the observed epoch is still ahead of
	// ours: a standby fenced before its own promotion sheds the stale
	// fence when SetEpochs moves it past the rival generation.
	if mine := p.Epoch(); p.fencedBy.Load() > mine {
		p.fencingRejects.Add(1)
		return &FencingError{Op: "write", Local: mine, Remote: p.fencedBy.Load()}
	}
	l := p.logs[shard]
	seq := l.headSeq()
	if seq == 0 {
		return nil
	}
	acked, attached := l.waitAck(seq, p.quorum, p.gate, p.window)
	if acked {
		p.quorumAcks.Add(1)
		return nil
	}
	if !attached {
		p.asyncWrites.Add(1)
		return nil
	}
	p.gateTimeouts.Add(1)
	return &history.BackendError{
		Op:  "replicate",
		Err: fmt.Errorf("replica: shard %02d write not acknowledged by %d follower(s) within %s", shard, p.quorum, p.gate),
	}
}

// HandleWAL serves GET /api/v1/replica/wal — the follower pull, which
// doubles as the heartbeat: the response's header line carries the
// primary's lease grant. Query: shard, epoch, from (last applied seq),
// id (the follower's advertised URL, its registry key), wait (long-poll
// milliseconds).
func (p *Primary) HandleWAL(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	shard, err := strconv.Atoi(q.Get("shard"))
	if err != nil || shard < 0 || shard >= len(p.logs) {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad shard %q", q.Get("shard")))
		return
	}
	epoch, _ := strconv.ParseUint(q.Get("epoch"), 10, 64)
	from, _ := strconv.ParseUint(q.Get("from"), 10, 64)
	waitMS, _ := strconv.Atoi(q.Get("wait"))
	wait := time.Duration(waitMS) * time.Millisecond
	if wait < 0 {
		wait = 0
	}
	if wait > maxPullWait {
		wait = maxPullWait
	}
	l := p.logs[shard]
	// A puller holding a HIGHER epoch than ours means a newer primary
	// has been elected while we kept serving: fence ourselves rather
	// than hand out frames a promotion already superseded.
	if mine := l.epochNow(); epoch > mine {
		p.Fence(epoch)
		p.fencingRejects.Add(1)
		httpError(w, http.StatusConflict, (&FencingError{Op: "pull", Local: mine, Remote: epoch}).Error())
		return
	}
	// The ack is registered before any long-poll wait: the pull position
	// IS the follower's applied offset, so the write gate releases the
	// moment the follower comes back for more, not when it next applies.
	id := q.Get("id")
	var fresh bool
	if epoch == l.epochNow() {
		fresh = l.registerAck(id, from)
	} else {
		fresh = l.registerAck(id, 0)
	}
	if fresh {
		p.notePeer(id)
	}
	resp, frames := l.pull(epoch, from, maxPullFrames, wait, r.Context().Done())
	resp.LeaseTTLMS = p.leaseTTL
	_ = writeFrames(w, resp, frames) // fails only when the puller is gone
}

// HandleSnapshot serves GET /api/v1/replica/snapshot?shard=N — the
// anti-entropy bootstrap image: its journal position on the header line,
// then every record as the put frame its journal entry would be.
func (p *Primary) HandleSnapshot(w http.ResponseWriter, r *http.Request) {
	shard, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil || shard < 0 || shard >= len(p.stores) {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad shard %q", r.URL.Query().Get("shard")))
		return
	}
	epoch, seq, entries, err := p.stores[shard].ReplicaSnapshot()
	var frames [][]byte
	if err == nil {
		frames, err = encodeFrames(entries)
	}
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	_ = writeFrames(w, SnapshotResponse{Epoch: epoch, Seq: seq}, frames) // fails only when the follower is gone
}

// Stats snapshots the primary's replication gauges.
func (p *Primary) Stats() Stats {
	out := Stats{
		Role:           "primary",
		Epoch:          p.Epoch(),
		LeaseAgeMS:     -1,
		AckQuorum:      p.quorum,
		QuorumAcks:     p.quorumAcks.Load(),
		FencingRejects: p.fencingRejects.Load(),
		AsyncWrites:    p.asyncWrites.Load(),
		GateTimeouts:   p.gateTimeouts.Load(),
	}
	for _, l := range p.logs {
		if age := l.lastPullAge(); age >= 0 && (out.LeaseAgeMS < 0 || age < out.LeaseAgeMS) {
			out.LeaseAgeMS = age
		}
		out.Shards = append(out.Shards, l.stats())
	}
	return out
}

// Peers returns the persisted-or-live follower ids, sorted.
func (p *Primary) Peers() []string {
	p.peersMu.Lock()
	defer p.peersMu.Unlock()
	out := make([]string, 0, len(p.peers))
	for id := range p.peers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// notePeer records a first-seen follower id and persists the registry.
func (p *Primary) notePeer(id string) {
	if id == "" {
		return
	}
	p.peersMu.Lock()
	defer p.peersMu.Unlock()
	if p.peers[id] {
		return
	}
	p.peers[id] = true
	if p.peersPath == "" {
		return
	}
	ids := make([]string, 0, len(p.peers))
	for pid := range p.peers {
		ids = append(ids, pid)
	}
	sort.Strings(ids)
	savePeers(p.peersPath, ids)
}

// loadPeers reads a persisted peer list; absent or torn files read as
// empty (peer persistence is best-effort discovery state, not truth).
func loadPeers(path string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var ids []string
	if err := json.Unmarshal(data, &ids); err != nil {
		return nil
	}
	return ids
}

// savePeers persists the peer list. Best-effort: it is discovery state,
// and a peer that fails to persist is re-learned at its next pull.
func savePeers(path string, ids []string) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	data, err := json.MarshalIndent(ids, "", "  ")
	if err != nil {
		return
	}
	history.WriteFileAtomic(path, ".peers-*.tmp", append(data, '\n'))
}

// epochNow returns the shard log's epoch.
func (l *shardLog) epochNow() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// PeersFilePath returns where a store persists its follower registry.
func PeersFilePath(storeDir string) string {
	return filepath.Join(storeDir, stateDirName, peersFileName)
}
