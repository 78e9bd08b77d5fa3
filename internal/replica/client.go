package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/history"
	"repro/internal/metric"
)

// httpc is the client every request between replicas goes out on. It
// sets no timeout of its own: each caller bounds its exchange with a
// context.
var httpc = &http.Client{}

// exchange is the one way this package talks to a peer — pull, snapshot,
// redirected op, promote, info probe: method on url, the request body
// writeFrames(header, frames) when header is non-nil, and the whole
// response body back once the peer answered 200. Everything else is an
// error of one of three kinds: 404 is a miss (os.ErrNotExist), 409 a
// fencing refusal (ErrFenced), and a dead socket or any other status
// storage trouble (history.BackendError) — each carrying what the peer
// said.
func exchange(ctx context.Context, method, url string, header any, frames [][]byte) ([]byte, error) {
	var reqBody io.Reader
	if header != nil {
		var buf bytes.Buffer
		if err := writeFrames(&buf, header, frames); err != nil {
			return nil, err
		}
		reqBody = &buf
	}
	req, err := http.NewRequestWithContext(ctx, method, url, reqBody)
	if err != nil {
		return nil, err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, &history.BackendError{Op: "replica", Err: err}
	}
	defer resp.Body.Close()
	body, err := readBody(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, &history.BackendError{Op: "replica", Err: fmt.Errorf("%s %s: %w", method, url, err)}
	}
	if resp.StatusCode == http.StatusOK {
		return body, nil
	}
	said := bytes.TrimSpace(body[:min(len(body), 512)])
	switch resp.StatusCode {
	case http.StatusNotFound:
		return nil, &history.BackendError{Op: "replica", Err: fmt.Errorf("%s: %w", said, os.ErrNotExist)}
	case http.StatusConflict:
		return nil, fmt.Errorf("replica: %s: %w", said, ErrFenced)
	}
	return nil, &history.BackendError{Op: "replica", Err: fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, said)}
}

// readBody reads r whole into one buffer, sized once (ReadFrom wants
// MinRead spare) when the sender announced a length — unless the
// announcement is beyond what a frame ring could hold, which is not
// taken on trust.
func readBody(r io.Reader, announced int64) ([]byte, error) {
	var buf bytes.Buffer
	if announced > 0 && announced <= 2*defaultRingBytes {
		buf.Grow(int(announced) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// Failover implements history.ShardFailover over the primary's follower
// registry and the node's table: Reader elects the most-caught-up
// follower for a shard's reads, Promote additionally tells that follower
// to stand for the shard and records the hand-over in the table — one
// follower owns a handed-over shard for the rest of the process's life.
type Failover struct {
	p *Primary
	// mu makes a hand-over one decision: it is held from reading the row
	// through electing a follower, asking it to stand and recording the
	// answer, so two writers that find the shard dead — or a writer and the
	// detector — cannot each elect a follower of their own.
	mu sync.Mutex
}

// NewFailover builds the failover seam over p's registry.
func NewFailover(p *Primary) *Failover { return &Failover{p: p} }

// Reader returns the new owner of a shard this node handed over, else the
// most-caught-up follower able to serve shard's reads, or false when no
// follower has pulled recently.
func (fo *Failover) Reader(shard int) (history.ShardReplica, bool) {
	if shard < 0 || shard >= len(fo.p.logs) {
		return nil, false
	}
	// Every op through a hand-over's handle carries the epoch the new owner
	// stood under, so a newer claim elsewhere fences this seam out.
	if r := fo.p.tab.read().rows[shard]; r.role == roleHandedOver {
		return &remoteShard{base: r.peer, shard: shard, epoch: r.epoch}, true
	}
	id, _, ok := fo.p.logs[shard].bestFollower(fo.p.window)
	if !ok {
		return nil, false
	}
	return &remoteShard{base: id, shard: shard}, true
}

// Promote elects the most-caught-up follower for shard, tells it to stand
// for the keyspace, and returns its write-capable handle. Idempotent: the
// table remembers the first hand-over and later calls return its handle.
func (fo *Failover) Promote(shard int) (history.ShardReplica, error) {
	if shard < 0 || shard >= len(fo.p.logs) {
		return nil, fmt.Errorf("replica: no shard %d", shard)
	}
	fo.mu.Lock()
	defer fo.mu.Unlock()
	if fo.p.tab.read().rows[shard].role != roleHandedOver {
		id, _, ok := fo.p.logs[shard].bestFollower(fo.p.window)
		if !ok {
			return nil, fmt.Errorf("replica: shard %02d has no attached follower to promote", shard)
		}
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		var resp PromoteResponse
		body, err := exchange(ctx, http.MethodPost, id+"/api/v1/replica/promote", PromoteRequest{Shard: shard}, nil)
		if err == nil {
			err = json.Unmarshal(body, &resp)
		}
		if err != nil {
			return nil, fmt.Errorf("replica: promote shard %02d on %s: %w", shard, id, err)
		}
		fo.p.tab.apply(event{kind: evHandedOver, shard: shard, peer: id, epoch: resp.Epoch})
	}
	r, _ := fo.Reader(shard)
	return r, nil
}

// opTimeout bounds one request of the failover seam.
const opTimeout = 30 * time.Second

// remoteShard is a follower's shard served over the replica op
// endpoint; it satisfies history.ShardReplica, so ShardedStore can use
// it wherever the local shard store would have served. epoch, when
// non-zero, stamps every op with the generation this handle was
// promoted under — the receiver fences stale stamps.
type remoteShard struct {
	base  string
	shard int
	epoch uint64
}

// op sends one redirected operation — entries ride an apply — and reads
// the answer: its header, and the records of a load or loadall, each
// decoded from the bytes the follower stores it under.
func (r *remoteShard) op(req OpRequest, entries []history.WALEntry) (resp OpResponse, recs []*history.RunRecord, err error) {
	frames, err := encodeFrames(entries)
	if err != nil {
		return resp, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	req.Shard, req.Epoch = r.shard, r.epoch
	body, err := exchange(ctx, http.MethodPost, r.base+"/api/v1/replica/op", req, frames)
	if err != nil {
		return resp, nil, err
	}
	stored, err := decodeFramed(body, &resp)
	if err == nil {
		recs = make([]*history.RunRecord, len(stored))
		for i, e := range stored {
			if recs[i], err = e.Record(); err != nil {
				break
			}
		}
	}
	if err != nil {
		return resp, nil, &history.BackendError{Op: "replica", Err: fmt.Errorf("op %s answer: %w", req.Op, err)}
	}
	return resp, recs, nil
}

func (r *remoteShard) Apply(entries []history.WALEntry) (int, error) {
	resp, _, err := r.op(OpRequest{Op: "apply"}, entries)
	return resp.Saved, err
}

func (r *remoteShard) Load(app, version, runID string) (*history.RunRecord, error) {
	_, recs, err := r.op(OpRequest{Op: "load", App: app, Version: version, RunID: runID}, nil)
	if err != nil {
		return nil, err
	}
	if len(recs) != 1 {
		return nil, &history.BackendError{Op: "replica", Err: fmt.Errorf("op load answered %d records", len(recs))}
	}
	return recs[0], nil
}

func (r *remoteShard) Keys() []history.RecordKey {
	resp, _, err := r.op(OpRequest{Op: "keys"}, nil)
	if err != nil {
		return nil
	}
	out := make([]history.RecordKey, 0, len(resp.Keys))
	for _, k := range resp.Keys {
		out = append(out, history.RecordKey(k))
	}
	return out
}

func (r *remoteShard) Len() int {
	resp, _, _ := r.op(OpRequest{Op: "len"}, nil)
	return resp.Len
}

func (r *remoteShard) LoadAll(app, version string) ([]*history.RunRecord, error) {
	_, recs, err := r.op(OpRequest{Op: "loadall", App: app, Version: version}, nil)
	return recs, err
}

var _ history.ShardReplica = (*remoteShard)(nil)
var _ history.ShardFailover = (*Failover)(nil)

// Node bundles a process's replication roles for the server layer: a
// primary side (WAL shipping), a follower side (apply loops), or both —
// the normal shape under automatic failover, where every follower
// carries a standby primary that starts serving the moment the node
// self-promotes. Advertise is the URL peers reach this node at.
type Node struct {
	Primary   *Primary
	Follower  *Follower
	Advertise string
}

// table is the node's one ownership table, whichever side holds it.
func (n *Node) table() *state {
	if n != nil && n.Follower != nil {
		return n.Follower.tab.read()
	}
	if n != nil && n.Primary != nil {
		return n.Primary.tab.read()
	}
	return &state{}
}

// Role resolves what this node currently is: a follower while it
// replicates every shard (its standby primary is dormant), a primary
// once any row of its table says otherwise.
func (n *Node) Role() string {
	st := n.table()
	if len(st.following()) < len(st.rows) {
		return "primary"
	}
	return "follower"
}

// Stats is the node's /statsz block, read off the table and each side's
// gauges: the primary side's gate counters and logs once the node is a
// primary (a dormant standby contributes its fencing count only), the
// follower side's lease, last error and rows.
func (n *Node) Stats() *Stats {
	if n == nil || n.Primary == nil && n.Follower == nil {
		return nil
	}
	st := n.table()
	out := &Stats{Role: n.Role(), LeaseAgeMS: -1}
	if p := n.Primary; p != nil {
		out.FencingRejects = p.fencingRejects.Load()
		if out.Role == "primary" {
			out.Epoch, out.AckQuorum = p.Epoch(), p.quorum
			out.QuorumAcks, out.AsyncWrites, out.GateTimeouts = p.quorumAcks.Load(), p.asyncWrites.Load(), p.gateTimeouts.Load()
			for _, l := range p.logs {
				if age := l.lastPullAge(); age >= 0 && (out.LeaseAgeMS < 0 || age < out.LeaseAgeMS) {
					out.LeaseAgeMS = age
				}
				out.Shards = append(out.Shards, l.stats())
			}
		}
	}
	if f := n.Follower; f != nil {
		out.FencingRejects += f.fencingRejects.Load()
		out.Suspect = len(st.suspects()) > 0
		f.mu.Lock()
		out.LastError = f.lastErr
		f.mu.Unlock()
		// The lease is as old as the quietest followed peer's.
		age := int64(-1)
		for i, r := range st.rows {
			if r.role == roleFollowing && !r.heard.IsZero() {
				age = max(age, time.Since(r.heard).Milliseconds())
			}
			out.Epoch = max(out.Epoch, r.epoch)
			out.Shards = append(out.Shards, ShardReplStats{Shard: i, Epoch: r.epoch, AppliedSeq: r.applied, Promoted: r.role == roleOwner})
		}
		if out.LeaseAgeMS < 0 {
			out.LeaseAgeMS = age
		}
	}
	return out
}

// HandleInfo serves GET /api/v1/replica/info — the layout handshake and
// the failover election's ballot, read off the table.
func (n *Node) HandleInfo(w http.ResponseWriter, r *http.Request) {
	st := n.table()
	info := InfoResponse{Role: n.Role(), Advertise: n.Advertise, Wire: wireGeneration,
		Shards: len(st.rows), Owned: st.owned(), Suspect: len(st.suspects()) > 0, Epoch: st.seen}
	for _, r := range st.rows {
		info.Epoch = max(info.Epoch, r.epoch)
		info.AppliedSeq += r.applied
	}
	if n.Primary != nil {
		info.Replicas, info.AckQuorum = n.Primary.replicas, n.Primary.quorum
		info.Epoch = max(info.Epoch, n.Primary.Epoch())
		info.Followers = n.Primary.Peers()
	}
	writeWire(w, http.StatusOK, info)
}

// GatedStorage decorates a Storage with the semi-sync write gate: every
// acknowledged Save, PutBatch and Delete has either reached a follower
// or — while no follower is attached — been counted as an async write.
// All other methods pass through.
type GatedStorage struct {
	history.Storage
	p      *Primary
	stages atomic.Pointer[metric.Stages]
}

// ObserveStages has the storage beneath record its commit stages in st,
// and the gate its wait for the ack quorum, as stage "ack" of op
// "commit".
func (g *GatedStorage) ObserveStages(st *metric.Stages) {
	g.stages.Store(st)
	if o, ok := g.Storage.(interface{ ObserveStages(*metric.Stages) }); ok {
		o.ObserveStages(st)
	}
}

// Gate wraps st so writes wait for follower acknowledgement.
func Gate(st history.Storage, p *Primary) *GatedStorage {
	return &GatedStorage{Storage: st, p: p}
}

// acked gates a finished write: a failed write passes through, a
// successful one waits for the ack quorum on the shard of every
// (app, version) keyspace it touched.
func (g *GatedStorage) acked(err error, keys ...history.RecordKey) error {
	if err != nil {
		return err
	}
	defer g.stages.Load().Since("commit", "ack", time.Now())
	waited := make([]bool, len(g.p.logs))
	for _, k := range keys {
		shard := history.ShardForKey(k.App, k.Version, len(waited))
		if waited[shard] {
			continue
		}
		waited[shard] = true
		if err := g.p.WaitWrite(shard); err != nil {
			return err
		}
	}
	return nil
}

func (g *GatedStorage) Save(rec *history.RunRecord) error {
	return g.acked(g.Storage.Save(rec), rec.Key())
}

func (g *GatedStorage) PutBatch(recs []*history.RunRecord) (int, error) {
	n, err := g.Storage.PutBatch(recs)
	if err != nil {
		return n, err
	}
	keys := make([]history.RecordKey, len(recs))
	for i, rec := range recs {
		keys[i] = rec.Key()
	}
	return n, g.acked(nil, keys...)
}

// PutEncoded is PutBatch for decoded put bodies, whose bytes the store
// beneath keeps when it can (history.SaveEncoded).
func (g *GatedStorage) PutEncoded(recs []history.Encoded) (int, error) {
	n, err := history.SaveEncoded(g.Storage, recs)
	if err != nil {
		return n, err
	}
	keys := make([]history.RecordKey, len(recs))
	for i, e := range recs {
		keys[i] = e.Record().Key()
	}
	return n, g.acked(nil, keys...)
}

func (g *GatedStorage) Delete(app, version, runID string) error {
	return g.acked(g.Storage.Delete(app, version, runID), history.RecordKey{App: app, Version: version})
}

// ShardStats forwards the inner store's shard gauges, keeping /statsz's
// sharding block intact through the gate.
func (g *GatedStorage) ShardStats() []history.ShardInfo {
	if ss, ok := g.Storage.(interface{ ShardStats() []history.ShardInfo }); ok {
		return ss.ShardStats()
	}
	return nil
}

var _ history.Storage = (*GatedStorage)(nil)

// writeWire writes v as indented JSON (the service's canonical shape).
func writeWire(w http.ResponseWriter, status int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, `{"error":"encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, status int, msg string) {
	writeWire(w, status, map[string]string{"error": msg})
}
