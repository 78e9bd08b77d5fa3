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
)

// Failover implements history.ShardFailover over the primary's follower
// registry: Reader elects the most-caught-up follower for a shard's
// reads, Promote additionally tells that follower to take the keyspace
// for writes. Promotion is cached — one follower owns a shard for the
// rest of the process's life.
type Failover struct {
	p     *Primary
	httpc *http.Client

	mu       sync.Mutex
	promoted map[int]*remoteShard
}

// NewFailover builds the failover seam over p's registry.
func NewFailover(p *Primary) *Failover {
	return &Failover{
		p:        p,
		httpc:    &http.Client{Timeout: 30 * time.Second},
		promoted: make(map[int]*remoteShard),
	}
}

// Reader returns the most-caught-up follower able to serve shard's
// reads, or false when no follower has pulled recently.
func (fo *Failover) Reader(shard int) (history.ShardReplica, bool) {
	if shard < 0 || shard >= len(fo.p.logs) {
		return nil, false
	}
	fo.mu.Lock()
	if r, ok := fo.promoted[shard]; ok {
		fo.mu.Unlock()
		return r, true
	}
	fo.mu.Unlock()
	id, _, ok := fo.p.logs[shard].bestFollower(fo.p.window)
	if !ok {
		return nil, false
	}
	return &remoteShard{base: id, shard: shard, httpc: fo.httpc}, true
}

// Promote elects the most-caught-up follower for shard, tells it to take
// the keyspace, and returns its write-capable handle. Idempotent: the
// first successful promotion is cached and later calls return it.
func (fo *Failover) Promote(shard int) (history.ShardReplica, error) {
	if shard < 0 || shard >= len(fo.p.logs) {
		return nil, fmt.Errorf("replica: no shard %d", shard)
	}
	fo.mu.Lock()
	defer fo.mu.Unlock()
	if r, ok := fo.promoted[shard]; ok {
		return r, nil
	}
	id, _, ok := fo.p.logs[shard].bestFollower(fo.p.window)
	if !ok {
		return nil, fmt.Errorf("replica: shard %02d has no attached follower to promote", shard)
	}
	r := &remoteShard{base: id, shard: shard, httpc: fo.httpc}
	var resp PromoteResponse
	if err := r.post("/api/v1/replica/promote", PromoteRequest{Shard: shard}, &resp); err != nil {
		return nil, fmt.Errorf("replica: promote shard %02d on %s: %w", shard, id, err)
	}
	// Every subsequent op through this handle carries the promotion
	// epoch, so a newer promotion elsewhere fences this seam out.
	r.epoch.Store(resp.Epoch)
	fo.promoted[shard] = r
	return r, nil
}

// remoteShard is a follower's shard served over the replica op
// endpoint; it satisfies history.ShardReplica, so ShardedStore can use
// it wherever the local shard store would have served. epoch, when
// non-zero, stamps every op with the generation this handle was
// promoted under — the receiver fences stale stamps.
type remoteShard struct {
	base  string
	shard int
	httpc *http.Client
	epoch atomic.Uint64
}

func (r *remoteShard) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := r.httpc.Do(hreq)
	if err != nil {
		return &history.BackendError{Op: "replica", Err: err}
	}
	defer hresp.Body.Close()
	if hresp.StatusCode == http.StatusNotFound {
		return &history.BackendError{Op: "replica", Err: os.ErrNotExist}
	}
	if hresp.StatusCode == http.StatusConflict {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 512))
		return fmt.Errorf("replica: %s: %w", msg, ErrFenced)
	}
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 512))
		return &history.BackendError{Op: "replica", Err: fmt.Errorf("%s: %s", hresp.Status, msg)}
	}
	if resp == nil {
		return nil
	}
	return json.NewDecoder(hresp.Body).Decode(resp)
}

func (r *remoteShard) op(req OpRequest) (*OpResponse, error) {
	req.Shard = r.shard
	req.Epoch = r.epoch.Load()
	var resp OpResponse
	if err := r.post("/api/v1/replica/op", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (r *remoteShard) Save(rec *history.RunRecord) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = r.op(OpRequest{Op: "save", Record: raw})
	return err
}

func (r *remoteShard) PutBatch(recs []*history.RunRecord) (int, error) {
	raws := make([]json.RawMessage, 0, len(recs))
	for _, rec := range recs {
		raw, err := json.Marshal(rec)
		if err != nil {
			return 0, err
		}
		raws = append(raws, raw)
	}
	resp, err := r.op(OpRequest{Op: "putbatch", Records: raws})
	if err != nil {
		return 0, err
	}
	return resp.Saved, nil
}

func (r *remoteShard) Load(app, version, runID string) (*history.RunRecord, error) {
	resp, err := r.op(OpRequest{Op: "load", App: app, Version: version, RunID: runID})
	if err != nil {
		return nil, err
	}
	return decodeWireRecord(resp.Record)
}

func (r *remoteShard) Delete(app, version, runID string) error {
	_, err := r.op(OpRequest{Op: "delete", App: app, Version: version, RunID: runID})
	return err
}

func (r *remoteShard) Keys() []history.RecordKey {
	resp, err := r.op(OpRequest{Op: "keys"})
	if err != nil {
		return nil
	}
	out := make([]history.RecordKey, 0, len(resp.Keys))
	for _, k := range resp.Keys {
		out = append(out, history.RecordKey{App: k.App, Version: k.Version, RunID: k.RunID})
	}
	return out
}

func (r *remoteShard) Len() int {
	resp, err := r.op(OpRequest{Op: "len"})
	if err != nil {
		return 0
	}
	return resp.Len
}

func (r *remoteShard) LoadAll(app, version string) ([]*history.RunRecord, error) {
	resp, err := r.op(OpRequest{Op: "loadall", App: app, Version: version})
	if err != nil {
		return nil, err
	}
	out := make([]*history.RunRecord, 0, len(resp.Records))
	for _, raw := range resp.Records {
		rec, err := decodeWireRecord(raw)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
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

// Role resolves what this node currently is: a node with an unpromoted
// follower side is a follower (its standby primary is dormant); once
// any shard promotes — or there is no follower side — it is a primary.
func (n *Node) Role() string {
	if n == nil {
		return ""
	}
	if n.Follower != nil && !n.Follower.AnyPromoted() {
		return "follower"
	}
	if n.Primary != nil {
		return "primary"
	}
	return "follower"
}

// Stats merges the roles' gauges under the resolved role: the active
// side is the base, the dormant side contributes its fencing and shard
// gauges.
func (n *Node) Stats() *Stats {
	if n == nil {
		return nil
	}
	switch {
	case n.Role() == "primary" && n.Primary != nil:
		s := n.Primary.Stats()
		if n.Follower != nil {
			fs := n.Follower.Stats()
			if fs.Epoch > s.Epoch {
				s.Epoch = fs.Epoch
			}
			s.FencingRejects += fs.FencingRejects
			if s.LeaseAgeMS < 0 {
				s.LeaseAgeMS = fs.LeaseAgeMS
			}
			s.Shards = append(s.Shards, fs.Shards...)
		}
		return &s
	case n.Follower != nil:
		s := n.Follower.Stats()
		if n.Primary != nil {
			s.FencingRejects += n.Primary.Stats().FencingRejects
		}
		return &s
	case n.Primary != nil:
		s := n.Primary.Stats()
		return &s
	}
	return nil
}

// HandleInfo serves GET /api/v1/replica/info — the layout handshake and
// the failover election's ballot.
func (n *Node) HandleInfo(w http.ResponseWriter, r *http.Request) {
	info := InfoResponse{Role: n.Role(), Advertise: n.Advertise}
	if n.Primary != nil {
		info.Shards = n.Primary.Shards()
		info.Replicas = n.Primary.Replicas()
		info.AckQuorum = n.Primary.Quorum()
		info.Epoch = n.Primary.Epoch()
		info.Followers = n.Primary.Peers()
	}
	if n.Follower != nil {
		info.Shards = n.Follower.Shards()
		info.Promoted = n.Follower.AnyPromoted()
		info.Suspect = n.Follower.Suspect()
		info.AppliedSeq = n.Follower.AppliedTotal()
		if e := n.Follower.Epoch(); e > info.Epoch {
			info.Epoch = e
		}
		if info.Advertise == "" {
			info.Advertise = n.Follower.Self()
		}
	}
	writeWire(w, http.StatusOK, info)
}

// GatedStorage decorates a Storage with the semi-sync write gate: every
// acknowledged Save, PutBatch and Delete has either reached a follower
// or — while no follower is attached — been counted as an async write.
// All other methods pass through.
type GatedStorage struct {
	history.Storage
	p *Primary
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
