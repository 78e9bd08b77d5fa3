package replica

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/history"
)

// stateDirName is the per-shard-store subdirectory holding replication
// state; stateFileName records the shard's durable columns, and
// positionFileName the position applied since.
const (
	stateDirName     = "replica"
	stateFileName    = "STATE.json"
	positionFileName = "POSITION"
)

// replState is the persisted columns of one shard's row: the position it
// has replicated through, and whether it owns the shard. STATE.json is
// written durably on every change of the row but its position; the
// position an applied batch advances goes to POSITION, overwritten in
// place, and loadState merges the two.
//
// Version 2 (FORMATS.md "STATE.json v2") adds the failover fields: the
// peer this shard follows, the epoch-stamped liveness lease that peer
// last granted, and — once it lost the shard — the stale epoch it owned,
// so a zombie write attempt can be refused with the typed fencing error
// naming both generations. Version 1 files (no version field) load
// unchanged.
type replState struct {
	Version     int         `json:"version,omitempty"`
	Epoch       uint64      `json:"epoch"`
	Applied     uint64      `json:"applied_seq"`
	Promoted    bool        `json:"promoted,omitempty"`
	Primary     string      `json:"primary,omitempty"`
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

// stateVersion is what writeState stamps on every write.
const stateVersion = 2

func statePath(storeDir string) string {
	return filepath.Join(storeDir, stateDirName, stateFileName)
}

func positionPath(storeDir string) string {
	return filepath.Join(storeDir, stateDirName, positionFileName)
}

// loadState reads a shard's row: STATE.json's columns, with the position
// of POSITION when that record checks, is of STATE.json's epoch and is
// ahead of it. Anything else in POSITION — torn, garbage, another
// generation's — leaves the durable position standing, which costs an
// idempotent re-pull.
func loadState(storeDir string) (replState, error) {
	var st replState
	data, err := os.ReadFile(statePath(storeDir))
	switch {
	case err == nil:
		if json.Unmarshal(data, &st) != nil {
			// A torn state file is crash residue: restart from zero and let
			// anti-entropy re-derive the position.
			st = replState{}
		}
	case !os.IsNotExist(err):
		return st, err
	}
	if data, err := os.ReadFile(positionPath(storeDir)); err == nil {
		if epoch, applied, ok := decodePosition(data); ok && epoch == st.Epoch && applied > st.Applied {
			st.Applied = applied
		}
	}
	return st, nil
}

// writeState persists a row's columns durably (data and directory
// fsynced): the role, the demotion record and the epoch must survive
// power loss.
func writeState(storeDir string, st replState) error {
	st.Version = stateVersion
	return writeJSONFile(statePath(storeDir), ".state-*.tmp", st)
}

// positionSize is POSITION's one record: the epoch and the applied
// position, little-endian, then the CRC-32 (IEEE) of those sixteen bytes.
const positionSize = 20

func encodePosition(epoch, applied uint64) []byte {
	b := binary.LittleEndian.AppendUint64(make([]byte, 0, positionSize), epoch)
	b = binary.LittleEndian.AppendUint64(b, applied)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// decodePosition reads the record at the head of b. Bytes after it are
// ignored: writePosition rewrites the head only, so a longer file — left
// by anything but this code — would otherwise refuse every record it is
// ever given.
func decodePosition(b []byte) (epoch, applied uint64, ok bool) {
	if len(b) < positionSize || crc32.ChecksumIEEE(b[:16]) != binary.LittleEndian.Uint32(b[16:positionSize]) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:]), true
}

// writePosition overwrites POSITION's record in place: one write at
// offset 0 of a file that keeps its inode, no rename, no fsync. It
// follows the commit that made the position's entries durable, so the
// record never claims more than the disk holds; one a power loss tears
// or loses is refused by its CRC or its epoch, or is behind STATE.json,
// and the durable position stands.
func writePosition(storeDir string, epoch, applied uint64) error {
	path := positionPath(storeDir)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if os.IsNotExist(err) {
		if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			f, err = os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
		}
	}
	if err != nil {
		return err
	}
	_, err = f.WriteAt(encodePosition(epoch, applied), 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeJSONFile replaces path (its directory made if need be) with v as
// indented JSON, durably, through a temp file named by pattern.
func writeJSONFile(path, pattern string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return history.WriteFileAtomic(path, pattern, append(data, '\n'))
}

// table is a node's ownership table and the one driver of step: apply
// serialises transitions, logs the rows that changed, and executes the
// effects that are the table's own (STATE.json and POSITION, the epoch
// bump). Readers — the write gate, the info handshake, the pull loops —
// load the published state and take no lock.
type table struct {
	stores []*history.Store
	// persists is set on a node with a follower side: only there do rows
	// have a STATE.json and a POSITION. logs are the node's shard logs,
	// when it has a primary side, raised together with the journals.
	persists bool
	logs     []*shardLog

	mu  sync.Mutex // one transition at a time, its writes included
	cur atomic.Pointer[state]
}

// journalEpoch is the generation st's journal runs under, 0 without one.
func journalEpoch(st *history.Store) uint64 {
	if w := st.WAL(); w != nil {
		return w.Epoch()
	}
	return 0
}

func newTable(stores []*history.Store, logs []*shardLog, persists bool, s state) *table {
	t := &table{stores: stores, logs: logs, persists: persists}
	t.cur.Store(&s)
	return t
}

func (t *table) read() *state { return t.cur.Load() }

// apply is the one way the table changes. A row whose journal refused its
// new generation stays as it was — nobody owns a shard under an epoch the
// journal never took; past that, the in-memory state advances even when a
// write fails. Either error goes back to the caller to record. Effects
// that are not the table's own (fxHandOver, fxElect) are returned for the
// caller that can act on them.
func (t *table) apply(ev event) (state, []effect, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ev.kind == evStand {
		for _, st := range t.stores {
			ev.floor = max(ev.floor, journalEpoch(st))
		}
	}
	old := t.read()
	next, fx := step(*old, ev, time.Now())
	// Published last: nobody reads a claim before it is durable.
	defer t.cur.Store(&next)
	var err error
	var rest []effect
	for _, e := range fx {
		switch e.kind {
		case fxBumpEpoch:
			if w := t.stores[e.shard].WAL(); w != nil && e.epoch > w.Epoch() {
				if serr := w.SetEpoch(e.epoch); serr != nil {
					err = errors.Join(err, fmt.Errorf("replica: shard %02d bump epoch: %w", e.shard, serr))
					next.rows[e.shard] = old.rows[e.shard]
					continue
				}
			}
			if t.logs != nil {
				t.logs[e.shard].setEpoch(e.epoch)
			}
		case fxPersist:
			if rs, ok := next.rows[e.shard].columns(); ok && t.persists {
				// An applied batch moves only the position; every other
				// change is the row's durable columns.
				dir, what := t.stores[e.shard].Dir(), "state"
				var werr error
				if e.durable {
					werr = writeState(dir, rs)
				} else {
					what, werr = "position", writePosition(dir, rs.Epoch, rs.Applied)
				}
				if werr != nil {
					err = errors.Join(err, fmt.Errorf("replica: shard %02d persist %s: %w", e.shard, what, werr))
				}
			}
		default:
			rest = append(rest, e)
		}
	}
	for i, r := range next.rows {
		if was := old.rows[i]; was.role != r.role || was.epoch != r.epoch || was.peer != r.peer || was.demoted != r.demoted {
			log.Printf("replica: shard %02d %s@%d -> %s@%d on %s (peer %q)", i, was.role, was.epoch, r.role, r.epoch, ev.kind, r.peer)
		}
	}
	return next, rest, err
}

// writable is the gate every public write passes: nil on a shard this
// node owns (or handed over — the store routes those to the new owner),
// the typed fencing error on one it lost (409, not retried: a client
// still pointed at the zombie must fail loudly, not spin), and a plain
// refusal on one it only replicates (503; the client retries — against
// the owner, eventually).
func (s *state) writable(shard int) error {
	switch r := s.rows[shard]; {
	case r.role == roleOwner || r.role == roleHandedOver:
		return nil
	case r.demoted != 0:
		return &FencingError{Op: "write", Local: r.demoted, Remote: r.epoch}
	}
	return fmt.Errorf("replica: shard %02d is a read-only follower (not promoted)", shard)
}
