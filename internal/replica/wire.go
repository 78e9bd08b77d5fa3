// Package replica implements primary/follower replication for the
// history store on top of the write-ahead journal: the journal is
// already a physical redo log, so a primary ships its CRC-framed
// entries, byte for byte as journaled and sequence-numbered within a
// journal epoch, to followers that fold them into their own durable
// stores and report applied offsets back. Followers pull — a long-poll
// per shard, the ack piggybacked on the pull — so the primary holds no
// connection state beyond a registry of who has applied what. An anti-entropy path (store snapshot + WAL
// tail) bootstraps fresh or stale followers whose pull position has
// fallen off the primary's in-memory frame ring.
//
// Failover has two rungs sharing this substrate. Store-level: the
// primary's ShardedStore, through the history.ShardFailover seam, serves
// a broken shard's reads from the most-caught-up follower and — when
// promotion is enabled — hands the keyspace over for writes. Process-
// level: when the whole primary dies, the heartbeat/lease failure
// detector notices (pulls double as heartbeats; the primary grants an
// epoch-stamped lease on each one) and the most-caught-up follower that
// can see a quorum of the cluster self-promotes by bumping the journal
// epoch — every replication and write RPC carries the epoch, so traffic
// from the dead primary's generation is refused with a typed fencing
// error (ErrFenced / 409) and at most one primary per keyspace is ever
// writable. A revived old primary discovers the higher epoch via the
// info handshake, demotes itself to follower, quarantines its unshipped
// WAL tail as a divergence record, and catches up via the snapshot
// bootstrap. Operator promotion (POST /promote) remains as a manual
// override. The semi-synchronous write gate generalizes to a quorum of
// acks, so the promotion winner — chosen by (applied_seq, advertise
// URL) — holds every acknowledged write by quorum intersection. See
// DESIGN.md §14–§15 and FORMATS.md "Replication stream".
package replica

import (
	"encoding/json"

	"repro/internal/history"
)

// PullResponse is the header of one follower pull's answer: a single
// line of JSON, followed in the body by the journal frames it announces
// (see writePull). NeedSnapshot tells the follower its position (epoch,
// from) is unserveable — wrong epoch, or evicted from the frame ring —
// and it must bootstrap from /snapshot. FirstSeq is the sequence number,
// within Epoch, of the first frame in the body; the rest follow it one
// by one. LeaseTTLMS is the primary's liveness lease grant: the follower
// may treat the primary as alive for that long after this response, and
// declares it suspect once the lease (stamped with Epoch) expires
// without renewal. Zero means the primary does not run the detector.
type PullResponse struct {
	Epoch        uint64 `json:"epoch"`
	HeadSeq      uint64 `json:"head_seq"`
	LeaseTTLMS   int64  `json:"lease_ttl_ms,omitempty"`
	NeedSnapshot bool   `json:"need_snapshot,omitempty"`
	FirstSeq     uint64 `json:"first_seq,omitempty"`
}

// SnapshotResponse is a consistent store image for follower bootstrap:
// every record as a put entry (exact stored bytes), stamped with the
// journal position it reflects. A follower that installs the entries
// and resumes pulling after (Epoch, Seq) converges to the primary.
type SnapshotResponse struct {
	Epoch   uint64             `json:"epoch"`
	Seq     uint64             `json:"seq"`
	Entries []history.WALEntry `json:"entries"`
}

// InfoResponse describes a node's replication shape — the handshake a
// follower uses to open a matching local layout, and the electorate's
// ballot during automatic failover: Epoch/AppliedSeq/Promoted feed the
// most-caught-up election, Suspect reports whether this node has also
// lost its primary (a peer that still sees the primary vetoes
// promotion), Advertise is the deterministic tie-break key, and
// Followers lets nodes learn the electorate from the primary while it
// is still healthy.
type InfoResponse struct {
	Role       string   `json:"role"` // "primary" | "follower"
	Shards     int      `json:"shards"`
	Replicas   int      `json:"replicas"`
	Epoch      uint64   `json:"epoch,omitempty"`
	AppliedSeq uint64   `json:"applied_seq,omitempty"` // summed across shards
	Promoted   bool     `json:"promoted,omitempty"`    // any shard promoted
	Suspect    bool     `json:"suspect,omitempty"`
	Advertise  string   `json:"advertise,omitempty"`
	AckQuorum  int      `json:"ack_quorum,omitempty"`
	Followers  []string `json:"followers,omitempty"`
}

// ClaimsPrimary reports whether the node presents itself as an owner of
// keyspace: a primary, or a follower with at least one promoted shard.
func (i InfoResponse) ClaimsPrimary() bool { return i.Role == "primary" || i.Promoted }

// PromoteRequest asks a follower to take ownership of one shard's
// keyspace (or every shard with Shard == -1, the whole-primary-death
// case). Promotion is idempotent and one-way until restart with a
// fresh role.
type PromoteRequest struct {
	Shard int `json:"shard"`
}

// PromoteResponse lists every shard the follower now owns, and the
// journal epoch the promotion bumped to — callers that keep writing
// through the seam must stamp subsequent ops with it.
type PromoteResponse struct {
	Promoted []int  `json:"promoted"`
	Epoch    uint64 `json:"epoch,omitempty"`
}

// OpRequest is one redirected store operation: the primary's failover
// seam executes point and scan operations against a follower's shard
// store when the local shard is down. Records travel as raw JSON.
// Epoch, when non-zero, is the journal epoch the sender believes the
// shard is at; a write op carrying a stale epoch is refused with the
// typed fencing error (409) so a zombie primary's seam cannot mutate a
// keyspace a newer promotion owns.
type OpRequest struct {
	Shard   int               `json:"shard"`
	Op      string            `json:"op"` // save|putbatch|load|delete|keys|len|loadall
	Epoch   uint64            `json:"epoch,omitempty"`
	App     string            `json:"app,omitempty"`
	Version string            `json:"version,omitempty"`
	RunID   string            `json:"run_id,omitempty"`
	Record  json.RawMessage   `json:"record,omitempty"`
	Records []json.RawMessage `json:"records,omitempty"`
}

// Key is a record key with wire tags.
type Key struct {
	App     string `json:"app"`
	Version string `json:"version,omitempty"`
	RunID   string `json:"run_id"`
}

// OpResponse carries one redirected operation's result.
type OpResponse struct {
	Record  json.RawMessage   `json:"record,omitempty"`
	Records []json.RawMessage `json:"records,omitempty"`
	Keys    []Key             `json:"keys,omitempty"`
	Len     int               `json:"len,omitempty"`
	Saved   int               `json:"saved,omitempty"`
}

// FollowerStats is one follower's position against a shard's log, as
// the primary's registry sees it.
type FollowerStats struct {
	ID        string `json:"id"`
	AckSeq    uint64 `json:"ack_seq"`
	LagFrames uint64 `json:"lag_frames"`
	LagBytes  int64  `json:"lag_bytes"`
}

// ShardReplStats is one shard's replication gauges. On a primary,
// HeadSeq is the log head and Followers the registry; on a follower,
// AppliedSeq is how far the apply loop has folded.
type ShardReplStats struct {
	Shard      int             `json:"shard"`
	Epoch      uint64          `json:"epoch"`
	HeadSeq    uint64          `json:"head_seq,omitempty"`
	AppliedSeq uint64          `json:"applied_seq,omitempty"`
	Promoted   bool            `json:"promoted,omitempty"`
	Followers  []FollowerStats `json:"followers,omitempty"`
}

// Stats is the /statsz replication block.
type Stats struct {
	Role string `json:"role"`
	// Epoch is the node's journal epoch (max across shards) — the
	// fencing generation every replication and write RPC carries.
	Epoch uint64 `json:"epoch,omitempty"`
	// LeaseAgeMS is the liveness lease age: on a primary, milliseconds
	// since any follower last pulled; on a follower, since it last heard
	// from its primary. -1 means no contact yet.
	LeaseAgeMS int64 `json:"lease_age_ms"`
	// Suspect is set on a follower whose lease on the primary has
	// expired (the failure detector considers the primary dead).
	Suspect bool `json:"suspect,omitempty"`
	// AckQuorum is the number of follower acks the write gate demands.
	AckQuorum int `json:"ack_quorum,omitempty"`
	// QuorumAcks counts writes released by a full quorum of acks.
	QuorumAcks uint64 `json:"quorum_acks,omitempty"`
	// FencingRejects counts stale-epoch RPCs refused with ErrFenced.
	FencingRejects uint64 `json:"fencing_rejects,omitempty"`
	// AsyncWrites counts writes acknowledged without a follower ack
	// because no follower was attached (semi-sync degrades to async
	// rather than refusing all writes before the first follower joins).
	AsyncWrites uint64 `json:"async_writes,omitempty"`
	// GateTimeouts counts writes refused because an attached follower
	// failed to ack within the gate timeout.
	GateTimeouts uint64 `json:"gate_timeouts,omitempty"`
	// LastError is the follower's most recent pull-path or election
	// failure, a STATE.json write that did not persist included.
	LastError string           `json:"last_error,omitempty"`
	Shards    []ShardReplStats `json:"shards"`
}
