// Package replica implements primary/follower replication for the
// history store on top of the write-ahead journal: the journal is
// already a physical redo log, so a primary ships its CRC-framed
// entries, byte for byte as journaled and sequence-numbered within a
// journal epoch, to followers that fold them into their own durable
// stores and report applied offsets back. Followers pull — a long-poll
// per shard, the ack piggybacked on the pull — so the primary holds no
// connection state beyond a registry of who has applied what. An
// anti-entropy path (store snapshot + WAL tail) bootstraps fresh or stale
// followers whose pull position has fallen off the primary's in-memory
// frame ring.
//
// Who owns a shard is one fact in one place: each node keeps a table, a
// row per shard (following, owner, handedOver, fenced; an epoch; a peer),
// and every decision over it is the pure step of role.go — the pull
// loops, the monitor, the detector, the promote endpoint and the store's
// failover seam only report what they observe and execute what step asks.
// A node comes to own a shard through one transition, a stand: won on
// ballots when the lease on the owner lapses (pulls double as heartbeats),
// or forced by an operator's POST /promote or by the seam handing over a
// shard whose store died. A stand bumps the journal epoch of the shards it
// covers and of no other; every replication and write RPC carries the
// epoch, so the old owner's traffic is refused with the typed fencing
// error (ErrFenced / 409), shard by shard, and a revived node follows the
// shards it lost and keeps the rest. The semi-synchronous write gate waits
// for a quorum of acks, so an election's winner holds every acknowledged
// write. See DESIGN.md §14–§15 and FORMATS.md "Replication stream".
package replica

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/history"
)

// wireGeneration numbers what replication peers say to each other: the
// framed bodies below and the frame format inside them. Nothing is
// negotiated — peers run the same build — so a follower refuses at the
// handshake (AwaitPrimary) a node that announces another number. Raise
// it with any change to a body or to the frame.
const wireGeneration = 2

// writeFrames writes the one body that carries record bytes between
// replicas, in either direction: hdr as a single line of JSON, a newline,
// then frames exactly as history.EncodeWALFrame built them — what
// follows the newline is what a journal segment holds, and decodeFramed
// reads it with the journal's decoder. An HTTP response announces the
// body's length first, so the reader can size its buffer once.
func writeFrames(w io.Writer, hdr any, frames [][]byte) error {
	line, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if rw, ok := w.(http.ResponseWriter); ok {
		n := len(line)
		for _, fr := range frames {
			n += len(fr)
		}
		rw.Header().Set("Content-Type", "application/octet-stream")
		rw.Header().Set("Content-Length", strconv.Itoa(n))
	}
	if _, err := w.Write(line); err != nil {
		return err
	}
	for _, fr := range frames {
		if _, err := w.Write(fr); err != nil {
			return err
		}
	}
	return nil
}

// encodeFrames frames entries the way the journal would.
func encodeFrames(entries []history.WALEntry) ([][]byte, error) {
	frames := make([][]byte, len(entries))
	for i, e := range entries {
		fr, err := history.EncodeWALFrame(e)
		if err != nil {
			return nil, err
		}
		frames[i] = fr
	}
	return frames, nil
}

// errBadFrame marks a body whose header line read but whose frames did
// not all decode: decodeFramed returns the good prefix with it. Only the
// pull applies that prefix; every other reader refuses the body whole.
var errBadFrame = errors.New("bad frame")

// decodeFramed reads a body writeFrames wrote: the header line into hdr,
// the rest through history.DecodeWALFrames — each frame's length and
// CRC32 checked, so a bit flipped in transit or in the sender's memory
// does not reach a store. The entries' Data slices point into body.
func decodeFramed(body []byte, hdr any) ([]history.WALEntry, error) {
	line, rest, _ := bytes.Cut(body, []byte{'\n'})
	if err := json.Unmarshal(line, hdr); err != nil {
		return nil, fmt.Errorf("header line: %w", err)
	}
	entries, _, bad := history.DecodeWALFrames(rest)
	if bad != "" {
		return entries, fmt.Errorf("%w: %s", errBadFrame, bad)
	}
	return entries, nil
}

// PullResponse is the header of one follower pull's answer; the journal
// frames it announces follow it in the body (writeFrames). NeedSnapshot
// tells the follower its position (epoch, from) is unserveable — wrong
// epoch, or evicted from the frame ring — and it must bootstrap from
// /snapshot. FirstSeq is the sequence number,
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

// SnapshotResponse is the header of a consistent store image for
// follower bootstrap: the journal position the image reflects. The body
// carries every record behind it as a put frame (exact stored bytes); a
// follower that installs them and resumes pulling after (Epoch, Seq)
// converges to the primary.
type SnapshotResponse struct {
	Epoch uint64 `json:"epoch"`
	Seq   uint64 `json:"seq"`
}

// Claim is one shard a node owns and the epoch it owns it under.
type Claim struct {
	Shard int    `json:"shard"`
	Epoch uint64 `json:"epoch"`
}

// InfoResponse describes a node's replication shape — the handshake a
// follower uses to open a matching local layout, and the electorate's
// ballot during automatic failover: Owned is the node's claim, shard by
// shard (what a peer fences, follows or rejoins by), AppliedSeq feeds the
// most-caught-up election, Suspect reports whether this node has also
// lost its primary (a peer that still sees the primary vetoes
// promotion), Advertise is the deterministic tie-break key, and
// Followers lets nodes learn the electorate from the primary while it
// is still healthy.
type InfoResponse struct {
	Role       string   `json:"role"` // "primary" while it owns or owned any shard, else "follower"
	Shards     int      `json:"shards"`
	Replicas   int      `json:"replicas"`
	Epoch      uint64   `json:"epoch,omitempty"`       // newest across shards
	AppliedSeq uint64   `json:"applied_seq,omitempty"` // summed across shards
	Owned      []Claim  `json:"owned,omitempty"`
	Suspect    bool     `json:"suspect,omitempty"`
	Advertise  string   `json:"advertise,omitempty"`
	AckQuorum  int      `json:"ack_quorum,omitempty"`
	Followers  []string `json:"followers,omitempty"`
	// Wire is the sender's wireGeneration; a build that predates the
	// field reads as 0.
	Wire int `json:"wire,omitempty"`
}

// ClaimsPrimary reports whether the node presents itself as an owner of
// keyspace: it owns at least one shard.
func (i InfoResponse) ClaimsPrimary() bool { return len(i.Owned) > 0 }

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

// OpRequest is the header of one redirected store operation: the
// primary's failover seam executes point and scan operations against a
// follower's shard store when the local shard is down. An apply's journal
// entries follow it in the body. Epoch, when non-zero, is the journal
// epoch the sender believes the shard is at; an apply carrying a stale
// epoch is refused with the typed fencing error (409) so a zombie
// primary's seam cannot mutate a keyspace a newer promotion owns.
type OpRequest struct {
	Shard   int    `json:"shard"`
	Op      string `json:"op"` // apply|load|loadall|keys|len
	Epoch   uint64 `json:"epoch,omitempty"`
	App     string `json:"app,omitempty"`
	Version string `json:"version,omitempty"`
	RunID   string `json:"run_id,omitempty"`
}

// Key is a record key with wire tags.
type Key struct {
	App     string `json:"app"`
	Version string `json:"version,omitempty"`
	RunID   string `json:"run_id"`
}

// OpResponse is the header of one redirected operation's result; the
// records of a load or loadall follow it in the body as put frames, the
// stored bytes untouched.
type OpResponse struct {
	Keys  []Key `json:"keys,omitempty"`
	Len   int   `json:"len,omitempty"`
	Saved int   `json:"saved,omitempty"`
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
