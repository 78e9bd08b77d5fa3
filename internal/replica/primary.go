package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
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
	logs     []*shardLog
	replicas int
	window   time.Duration
	gate     time.Duration
	quorum   int   // follower acks a gated write demands (min 1)
	leaseTTL int64 // milliseconds granted to pullers; 0 = no detector

	// tab is the node's ownership table: its own on a configured primary
	// (every shard owned from the start), the follower's on a standby.
	tab *table

	asyncWrites    atomic.Uint64
	gateTimeouts   atomic.Uint64
	quorumAcks     atomic.Uint64
	fencingRejects atomic.Uint64

	peersMu   sync.Mutex
	peersPath string // "" = don't persist
	peers     peerSet
}

// peerSet is a set of peer URLs, kept sorted.
type peerSet []string

// add inserts id and reports whether it was new; "" never is.
func (s *peerSet) add(id string) bool {
	i, found := slices.BinarySearch(*s, id)
	if found || id == "" {
		return false
	}
	*s = slices.Insert(*s, i, id)
	return true
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
		replicas: replicas,
		window:   defaultFollowerWindow,
		gate:     defaultGateTimeout,
		quorum:   1,
	}
	var rows []row
	for i, s := range stores {
		w := s.WAL()
		if w == nil {
			return nil, fmt.Errorf("replica: shard %02d has no journal (replication requires -wal)", i)
		}
		l := newShardLog(i, w.Epoch())
		p.logs = append(p.logs, l)
		w.SetOnAppend(l.append)
		rows = append(rows, row{role: roleOwner, epoch: w.Epoch()})
	}
	p.tab = newTable(stores, p.logs, false, state{rows: rows})
	return p, nil
}

// StandbyOf makes p the primary side of f's node: the two share f's
// table, so the logs p serves pulls from move to the generation of every
// stand f makes, and p's gate and detector act on the rows f owns. Call
// it before either side serves.
func (p *Primary) StandbyOf(f *Follower) {
	p.tab = f.tab
	p.tab.logs = p.logs
}

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
		p.peers.add(id)
	}
}

// Epoch returns the node's journal epoch (max across shards).
func (p *Primary) Epoch() (epoch uint64) {
	for _, l := range p.logs {
		epoch = max(epoch, l.epochNow())
	}
	return epoch
}

// WaitWrite is the semi-sync gate: after a local write, wait until an
// ack quorum of followers has applied up to the shard log's head. With
// no follower ever attached the gate degrades to async (counted) rather
// than refusing every write before the first follower joins; once a
// follower has attached, a lagging or vanished quorum refuses the write
// — so the acked-write set stays a subset of what any quorum member
// holds, and promotion by the most-caught-up follower loses nothing. A
// shard the table says this node lost refuses with the typed fencing
// error; one it handed over does not wait — its log stopped with the
// hand-over, and no follower will ever ack it.
func (p *Primary) WaitWrite(shard int) error {
	if p.replicas <= 0 || shard < 0 || shard >= len(p.logs) {
		return nil
	}
	// One load of the table: a shard this node handed over is the new
	// owner's to acknowledge, a shard it lost refuses for good.
	st := p.tab.read()
	if st.rows[shard].role == roleHandedOver {
		return nil
	}
	if err := st.writable(shard); errors.Is(err, ErrFenced) {
		p.fencingRejects.Add(1)
		return err
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
	wait := min(max(time.Duration(waitMS)*time.Millisecond, 0), maxPullWait)
	l := p.logs[shard]
	// A puller holding a HIGHER epoch than ours means this shard was
	// claimed while we kept serving it: the row is fenced rather than
	// frames a newer generation superseded handed out.
	id := q.Get("id")
	if mine := l.epochNow(); epoch > mine {
		p.tab.apply(event{kind: evClaim, peer: id, claims: []Claim{{Shard: shard, Epoch: epoch}}})
		p.fencingRejects.Add(1)
		httpError(w, http.StatusConflict, (&FencingError{Op: "pull", Local: mine, Remote: epoch}).Error())
		return
	}
	// The ack is registered before any long-poll wait: the pull position
	// IS the follower's applied offset, so the write gate releases the
	// moment the follower comes back for more, not when it next applies.
	// A position under another epoch acknowledges nothing of this one.
	ack := from
	if epoch != l.epochNow() {
		ack = 0
	}
	if fresh := l.registerAck(id, ack); fresh {
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
	if err != nil || shard < 0 || shard >= len(p.logs) {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad shard %q", r.URL.Query().Get("shard")))
		return
	}
	epoch, seq, entries, err := p.tab.stores[shard].ReplicaSnapshot()
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

// Peers returns the persisted-or-live follower ids, sorted.
func (p *Primary) Peers() []string {
	p.peersMu.Lock()
	defer p.peersMu.Unlock()
	return slices.Clone(p.peers)
}

// notePeer records a first-seen follower id and persists the registry.
func (p *Primary) notePeer(id string) {
	p.peersMu.Lock()
	defer p.peersMu.Unlock()
	if p.peers.add(id) && p.peersPath != "" {
		savePeers(p.peersPath, p.peers)
	}
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
	_ = writeJSONFile(path, ".peers-*.tmp", ids)
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
