package history

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// The write-ahead journal: the durability rung beneath the Store. Every
// Save and Delete is framed, CRC'd and appended here before the backend
// is touched, so a crash — a SIGKILL mid-rename, a torn write corrupting
// a previously acknowledged record — can always be rolled forward from
// the journal at the next open. The WAL is redo-only: replay folds the
// journal tail per key (last entry wins) and re-commits whatever the
// record files do not already reflect (Store.commit's redo mode). See FORMATS.md "Write-ahead
// journal" for the frame layout and DESIGN.md §10 for the crash model.

// SyncPolicy names how often the WAL fsyncs its active segment.
type SyncPolicy string

// The sync policies. SyncAlways fsyncs after every append — an
// acknowledged write is durable across power loss, at roughly one fsync
// per Save. SyncIntervalPolicy fsyncs at most once per WALOptions.SyncEvery,
// bounding the loss window to that interval. SyncNone never fsyncs
// (process crashes still lose nothing — the OS holds the pages — but
// power loss may truncate the tail).
const (
	SyncAlways         SyncPolicy = "always"
	SyncIntervalPolicy SyncPolicy = "interval"
	SyncNone           SyncPolicy = "none"
)

// ParseSyncPolicy parses the -wal-sync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case SyncAlways, SyncIntervalPolicy, SyncNone:
		return SyncPolicy(s), nil
	}
	return "", fmt.Errorf("history: unknown WAL sync policy %q (want always|interval|none)", s)
}

// WALOptions configures a journal.
type WALOptions struct {
	// Sync is the fsync policy; "" means SyncAlways.
	Sync SyncPolicy
	// SyncEvery is the SyncIntervalPolicy cadence; <= 0 means 100ms.
	SyncEvery time.Duration
	// SegmentBytes rotates the active segment once it grows past this
	// size; <= 0 means 4 MiB.
	SegmentBytes int64
}

func (o WALOptions) withDefaults() WALOptions {
	if o.Sync == "" {
		o.Sync = SyncAlways
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// WALDirName is the store subdirectory holding journal segments.
const WALDirName = "wal"

// walSuffix names journal segment files: NNNNNNNN.wal, ordered by
// sequence number.
const walSuffix = ".wal"

// maxWALFrame bounds one frame's payload; anything larger is treated as
// frame corruption rather than allocated.
const maxWALFrame = 64 << 20

// WAL operations.
const (
	walOpPut    = "put"
	walOpDelete = "delete"
)

// The exported aliases let replication code construct and classify
// entries without re-spelling the wire strings.
const (
	WALOpPut    = walOpPut
	WALOpDelete = walOpDelete
)

// walEpochName is the per-journal epoch counter file. StartWAL truncates
// the segment history at every open, so frame sequence numbers restart
// from 1 each generation; the epoch disambiguates generations for
// replication consumers (a follower holding (epoch, seq) can tell a
// primary restart from a gap in the stream).
const walEpochName = "EPOCH"

// readWALEpoch returns the epoch recorded under dir, or 0 when absent.
func readWALEpoch(dir string) (uint64, error) {
	data, err := os.ReadFile(filepath.Join(dir, walEpochName))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	epoch, err := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad epoch file: %w", err)
	}
	return epoch, nil
}

// writeWALEpoch persists epoch under dir. The counter is the fencing
// token, so a crash or power loss must never leave it torn or empty.
func writeWALEpoch(fs fsys, dir string, epoch uint64) error {
	return writeFileAtomic(fs, filepath.Join(dir, walEpochName), ".epoch-*.tmp", []byte(fmt.Sprintf("%d\n", epoch)))
}

// WALEntry is one journaled mutation. Put entries carry the full encoded
// record, so replay needs nothing but the journal; Delete entries carry
// only the key. A failed backend mutation appends a compensating entry
// restoring the pre-image, which keeps the fold (last entry per key)
// equal to the last acknowledged state.
type WALEntry struct {
	Op      string `json:"op"` // "put" | "delete"
	App     string `json:"app"`
	Version string `json:"version,omitempty"`
	RunID   string `json:"run_id"`
	// Data is the record file's bytes, indentation included. A journal
	// frame carries them raw (EncodeWALFrame) and a decoded entry's Data
	// is a slice of the frame it came from — read-only, and alive as long
	// as the entry is. The JSON tags serve the read-only v1 journal
	// payload alone, where Data is base64 ([]byte, not json.RawMessage, on
	// purpose: the JSON encoder compacts embedded RawMessage, and replay
	// must restore the file byte-for-byte).
	Data []byte `json:"data,omitempty"`
}

// Key returns the record key the entry mutates.
func (e WALEntry) Key() RecordKey {
	return RecordKey{App: e.App, Version: e.Version, RunID: e.RunID}
}

// WALScanReport describes what reading a journal found.
type WALScanReport struct {
	// Segments and Entries count what was readable.
	Segments int
	Entries  int
	// TornTail reports an incomplete or CRC-failing final frame — the
	// normal residue of a crash mid-append. The torn frame was never
	// acknowledged, so replay simply stops before it. The tail is the
	// last segment holding bytes; an empty one made ahead may follow it.
	TornTail bool
	// Corrupt lists bad frames that are not the journal's tail — real
	// corruption, not crash residue. Reading stops at the first bad frame
	// of a segment; later segments are still read.
	Corrupt []string
}

// ReadWAL reads every decodable frame of every segment under dir, in
// segment then append order. A missing directory is an empty journal.
func ReadWAL(dir string) ([]WALEntry, *WALScanReport, error) {
	rep := &WALScanReport{}
	segs, err := walSegments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, rep, nil
		}
		return nil, rep, fmt.Errorf("history: wal: %w", err)
	}
	rep.Segments = len(segs)
	var entries []WALEntry
	torn := "" // the last bad frame, the tail's until a later segment holds bytes
	for _, seg := range segs {
		data, err := os.ReadFile(filepath.Join(dir, seg))
		if err != nil {
			return entries, rep, fmt.Errorf("history: wal %s: %w", seg, err)
		}
		if torn != "" && len(data) > 0 {
			rep.Corrupt, torn = append(rep.Corrupt, torn), ""
		}
		es, _, bad := DecodeWALFrames(data)
		entries = append(entries, es...)
		rep.Entries += len(es)
		if bad != "" {
			torn = seg + ": " + bad
		}
	}
	rep.TornTail = torn != ""
	return entries, rep, nil
}

// walSegments lists segment basenames under dir in sequence order.
func walSegments(dir string) ([]string, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), walSuffix) {
			continue
		}
		segs = append(segs, de.Name())
	}
	sort.Strings(segs)
	return segs, nil
}

// The frame payload, version 2: a version byte, an op byte, the three key
// strings each behind a uvarint length, then the record bytes raw to the
// end of the payload (none for a delete). Version 1 was the JSON encoding
// of WALEntry, Data in base64; it is still read — a journal left by a
// build that wrote it replays at the first open, which truncates it —
// and never written. A v1 payload opens with '{', which is no version.
const walPayloadV2 = 2

// The op byte of a v2 payload.
const (
	walOpBytePut    = 1
	walOpByteDelete = 2
)

// walFrameHeader is the frame header's size: payload length and CRC32,
// both big-endian uint32.
const walFrameHeader = 8

// EncodeWALFrame builds e's journal frame — header and v2 payload — in
// one buffer: the bytes WAL.Append writes, the append hook hands on and
// a replication pull ships, unchanged from there to DecodeWALFrames.
func EncodeWALFrame(e WALEntry) ([]byte, error) {
	var op byte
	switch e.Op {
	case walOpPut:
		op = walOpBytePut
	case walOpDelete:
		op = walOpByteDelete
	default:
		return nil, fmt.Errorf("history: wal: unknown op %q", e.Op)
	}
	n := 2 + 3*binary.MaxVarintLen32 + len(e.App) + len(e.Version) + len(e.RunID) + len(e.Data)
	if n > maxWALFrame {
		return nil, fmt.Errorf("history: wal: entry %s is %d bytes, over the %d-byte frame limit", e.Key(), n, maxWALFrame)
	}
	frame := make([]byte, walFrameHeader, walFrameHeader+n)
	frame = append(frame, walPayloadV2, op)
	for _, s := range [...]string{e.App, e.Version, e.RunID} {
		frame = binary.AppendUvarint(frame, uint64(len(s)))
		frame = append(frame, s...)
	}
	frame = append(frame, e.Data...)
	payload := frame[walFrameHeader:]
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	return frame, nil
}

// DecodeWALPayload decodes one frame's payload, either version. A v2
// entry's Data is a slice of payload, not a copy.
func DecodeWALPayload(payload []byte) (WALEntry, error) {
	var e WALEntry
	if len(payload) > 0 && payload[0] == '{' {
		// json.Marshal wrote every v1 payload and never emits invalid UTF-8:
		// such bytes are corruption, which Unmarshal would replay as U+FFFD.
		if !utf8.Valid(payload) {
			return WALEntry{}, fmt.Errorf("v1 payload: invalid UTF-8")
		}
		if err := json.Unmarshal(payload, &e); err != nil {
			return WALEntry{}, fmt.Errorf("v1 payload: %v", err)
		}
		if e.Op != walOpPut && e.Op != walOpDelete {
			return WALEntry{}, fmt.Errorf("unknown op %q", e.Op)
		}
		return e, nil
	}
	if len(payload) < 2 || payload[0] != walPayloadV2 {
		return WALEntry{}, fmt.Errorf("unknown payload version")
	}
	switch payload[1] {
	case walOpBytePut:
		e.Op = walOpPut
	case walOpByteDelete:
		e.Op = walOpDelete
	default:
		return WALEntry{}, fmt.Errorf("unknown op byte %d", payload[1])
	}
	rest := payload[2:]
	for _, s := range [...]*string{&e.App, &e.Version, &e.RunID} {
		n, w := binary.Uvarint(rest)
		if w <= 0 || n > uint64(len(rest)-w) {
			return WALEntry{}, fmt.Errorf("key string runs past the payload")
		}
		*s = string(rest[w : w+int(n)])
		rest = rest[w+int(n):]
	}
	if len(rest) > 0 {
		e.Data = rest
	}
	return e, nil
}

// DecodeWALFrames decodes the frames of one segment's bytes — or of a
// replication pull's body, which is the same bytes — up to the first bad
// one: good is the length of the valid prefix, bad describes the frame
// that ended it ("" when everything decoded). The entries' Data slices
// point into data.
func DecodeWALFrames(data []byte) (entries []WALEntry, good int, bad string) {
	off := 0
	for off < len(data) {
		if len(data)-off < walFrameHeader {
			return entries, off, fmt.Sprintf("short frame header at offset %d", off)
		}
		n := binary.BigEndian.Uint32(data[off:])
		sum := binary.BigEndian.Uint32(data[off+4:])
		if n == 0 || n > maxWALFrame {
			return entries, off, fmt.Sprintf("implausible frame length %d at offset %d", n, off)
		}
		if len(data)-off-walFrameHeader < int(n) {
			return entries, off, fmt.Sprintf("truncated frame payload at offset %d", off)
		}
		payload := data[off+walFrameHeader : off+walFrameHeader+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return entries, off, fmt.Sprintf("CRC mismatch at offset %d", off)
		}
		e, err := DecodeWALPayload(payload)
		if err != nil {
			return entries, off, fmt.Sprintf("undecodable frame at offset %d: %v", off, err)
		}
		entries = append(entries, e)
		off += walFrameHeader + int(n)
	}
	return entries, off, ""
}

// WALFold computes the final intended state per key: the journal is
// sequential, so the last entry for a key is the last acknowledged (or
// compensated) mutation of it.
func WALFold(entries []WALEntry) map[RecordKey]WALEntry {
	out := make(map[RecordKey]WALEntry, len(entries))
	for _, e := range entries {
		out[e.Key()] = e
	}
	return out
}

// WALStats snapshots a journal's counters.
type WALStats struct {
	Appends   uint64 `json:"appends"`
	Syncs     uint64 `json:"syncs"`
	Rotations uint64 `json:"rotations"`
	Segments  int    `json:"segments"`
}

// WAL is an open write-ahead journal: an append-only sequence of CRC32-
// framed entries across rotated segment files. Safe for concurrent use.
type WAL struct {
	dir  string
	opts WALOptions
	fs   fsys

	mu       sync.Mutex
	f        file
	next     file // segment seq+1, made ahead of need and durable by name; nil while none
	seq      uint64
	size     int64
	lastSync time.Time
	dirty    bool
	// unsafeCompact is set when a compensating entry could not be healed
	// into the backend: old segments may still be needed by replay, so
	// rotation stops discarding them until the next open.
	unsafeCompact bool
	stale         []string // rotated, fully-applied segments awaiting removal
	segments      int
	ahead         atomic.Bool // makeAhead has work (noteAheadLocked)
	// onAppend, when set, observes every successfully journaled frame
	// (under w.mu, in append order): its sequence number within this
	// epoch and the frame's bytes exactly as written. The replication
	// shipper hangs off this seam.
	onAppend func(seq uint64, frame []byte)

	// epoch counts journal generations: StartWAL discards segments, so
	// (epoch, append seq) uniquely names a frame across restarts. Atomic
	// because failover promotion bumps it (SetEpoch) while readers poll.
	epoch atomic.Uint64

	appends   atomic.Uint64
	syncs     atomic.Uint64
	rotations atomic.Uint64
}

// StartWAL opens a fresh journal under dir, discarding any existing
// segments — the caller (OpenStoreDurable, pcfsck -repair) has already
// replayed them into the record files. The first segment is created
// eagerly so an empty journal is distinguishable from an absent one.
func StartWAL(dir string, opts WALOptions) (*WAL, error) { return startWAL(osFS{}, dir, opts) }

// startWAL is StartWAL through fs, the journal's for its lifetime.
func startWAL(fs fsys, dir string, opts WALOptions) (*WAL, error) {
	w := &WAL{dir: dir, opts: opts.withDefaults(), fs: fs}
	if err := w.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("history: wal: %w", err)
	}
	segs, err := walSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("history: wal: %w", err)
	}
	for _, seg := range segs {
		if err := w.fs.Remove(filepath.Join(dir, seg)); err != nil {
			return nil, fmt.Errorf("history: wal: %w", err)
		}
	}
	epoch, err := readWALEpoch(dir)
	if err != nil {
		return nil, fmt.Errorf("history: wal: %w", err)
	}
	epoch++
	if err := writeWALEpoch(w.fs, dir, epoch); err != nil {
		return nil, fmt.Errorf("history: wal: %w", err)
	}
	w.epoch.Store(epoch)
	if err := w.nextSegment(); err != nil {
		return nil, err
	}
	return w, nil
}

// Epoch returns the journal generation: incremented (and persisted) at
// every StartWAL, so frame sequence numbers — which restart from 1 each
// generation — are globally ordered as (epoch, seq).
func (w *WAL) Epoch() uint64 { return w.epoch.Load() }

// SetEpoch advances the journal generation without truncating segments.
// Failover promotion uses it to fence a dead primary's epoch: the new
// epoch is persisted first, so a crash between persist and the in-memory
// store still resolves to the bumped value at reopen. Epochs only move
// forward.
func (w *WAL) SetEpoch(epoch uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if epoch <= w.epoch.Load() {
		return fmt.Errorf("history: wal: epoch must advance (have %d, asked %d)", w.epoch.Load(), epoch)
	}
	if err := writeWALEpoch(w.fs, w.dir, epoch); err != nil {
		return fmt.Errorf("history: wal: %w", err)
	}
	w.epoch.Store(epoch)
	return nil
}

// JournalEpoch reads the persisted journal generation for a store
// directory without opening the store — role reconciliation at daemon
// startup compares on-disk epochs against live peers before any journal
// is (re)started, since StartWAL itself bumps the epoch.
func JournalEpoch(storeDir string) (uint64, error) {
	return readWALEpoch(filepath.Join(storeDir, WALDirName))
}

// ShardDirs lists, without opening anything, the directories a store's
// shards live in, in shard order: shards/NN of a sharded layout, storeDir
// itself of a plain one. Start-up reconciliation reads each one's
// JournalEpoch, and what the replication layer keeps beside it.
func ShardDirs(storeDir string) (dirs []string) {
	if !IsShardedLayout(storeDir) {
		return []string{storeDir}
	}
	for i := 0; ; i++ {
		dir := filepath.Join(storeDir, ShardsDirName, shardDirName(i))
		if _, err := os.Stat(dir); err != nil {
			return dirs
		}
		dirs = append(dirs, dir)
	}
}

// SetOnAppend installs fn to observe every journaled frame, called under
// the journal lock in append order with the frame's sequence number
// within the current epoch and the whole frame — length, CRC32, payload
// — as the journal wrote it: an entry is framed once, in Append, and
// shipped as is. fn may retain frame but must not modify it. Install
// before concurrent appends begin.
func (w *WAL) SetOnAppend(fn func(seq uint64, frame []byte)) {
	w.mu.Lock()
	w.onAppend = fn
	w.mu.Unlock()
}

// createSegment creates segment seq; a segment whose name cannot be
// made durable is removed again, so a retry can create it. Callers hold
// w.mu (or have exclusive access during construction).
func (w *WAL) createSegment(seq uint64) (file, error) {
	path := w.segmentPath(seq)
	f, err := w.fs.CreateExcl(path)
	if os.IsExist(err) && w.fs.Remove(path) == nil {
		// An empty leftover of a create whose name could not be made
		// durable, nor removed again: a retry takes its place.
		f, err = w.fs.CreateExcl(path)
	}
	if err != nil {
		return nil, fmt.Errorf("history: wal: %w", err)
	}
	// The segment must exist by name before frames are acknowledged.
	if err := w.fs.SyncDir(w.dir); err != nil {
		f.Close()
		w.fs.Remove(path)
		return nil, fmt.Errorf("history: wal: %w", err)
	}
	w.segments++
	return f, nil
}

// nextSegment switches to segment seq+1: the one made ahead, else one
// created now.
func (w *WAL) nextSegment() (err error) {
	f := w.next
	if f == nil {
		if f, err = w.createSegment(w.seq + 1); err != nil {
			return err
		}
	}
	w.f, w.next, w.seq, w.size = f, nil, w.seq+1, 0
	return nil
}

// makeAhead does between commits what a rotation would do in one: it
// removes the closed segments (unless unsafeCompact) and, once the active
// one is half full, creates the next. The spare pool calls it while
// ahead is set; false means a call failed, to be tried after the next commit.
func (w *WAL) makeAhead() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	defer w.noteAheadLocked()
	if w.f == nil {
		return true
	}
	if !w.unsafeCompact && w.compactLocked() != nil {
		return false
	}
	if w.next == nil && w.size >= w.opts.SegmentBytes/2 {
		var err error
		w.next, err = w.createSegment(w.seq + 1)
		return err == nil
	}
	return true
}

func (w *WAL) noteAheadLocked() {
	w.ahead.Store(w.f != nil && (len(w.stale) > 0 && !w.unsafeCompact || w.next == nil && w.size >= w.opts.SegmentBytes/2))
}

func (w *WAL) segmentPath(seq uint64) string {
	return filepath.Join(w.dir, fmt.Sprintf("%08d%s", seq, walSuffix))
}

// Append journals one entry — a group of one.
func (w *WAL) Append(e WALEntry) error { return w.AppendGroup([]WALEntry{e}) }

// AppendGroup journals the entries of one commit, in order, as one write
// pass and one sync: each entry is its own frame, exactly the bytes
// Append would have written for it, and all of them are durable per the
// sync policy when AppendGroup returns. The group is journaled whole or
// not at all: a frame that cannot be encoded refuses it before anything
// is written, and a failed write restores the segment to where the group
// began, so nothing of it is replayed and nothing of it reached the
// append hook; a failed sync leaves the group written and handed on, and
// says so (errUnsynced). The segment rotates only ahead of a group's
// first frame — rotation discards closed segments on the promise that
// their entries were applied, and this group's are not yet.
func (w *WAL) AppendGroup(es []WALEntry) error {
	frames := make([][]byte, len(es))
	total := int64(0)
	for i, e := range es {
		frame, err := EncodeWALFrame(e)
		if err != nil {
			return err
		}
		frames[i] = frame
		total += int64(len(frame))
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("history: wal: closed")
	}
	if w.size > 0 && w.size+total > w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	for _, frame := range frames {
		if _, err := w.f.Write(frame); err != nil {
			// A failed write may have left part of a frame — and the whole
			// of the group's earlier ones — on disk. No frame must ever
			// follow a torn one (replay stops at the first bad frame, which
			// would hide every later acknowledged entry) and no frame of a
			// refused group may be replayed, so restore the segment to the
			// group's start (w.size) before any further append can land.
			w.repairTornTailLocked()
			return fmt.Errorf("history: wal append: %w", err)
		}
	}
	w.size += total
	w.dirty = true
	w.noteAheadLocked()
	for _, frame := range frames {
		seq := w.appends.Add(1)
		if w.onAppend != nil {
			w.onAppend(seq, frame)
		}
	}
	var err error
	switch w.opts.Sync {
	case SyncAlways:
		err = w.syncLocked()
	case SyncIntervalPolicy:
		if time.Since(w.lastSync) >= w.opts.SyncEvery {
			err = w.syncLocked()
		}
	}
	if err != nil {
		return fmt.Errorf("%w (%w)", err, errUnsynced)
	}
	return nil
}

// errUnsynced marks a group whose frames were written — and handed to the
// append hook — but whose sync failed: it is in the journal, only not
// durable, so the store compensates it rather than leave the replay a
// write nobody acknowledged.
var errUnsynced = errors.New("journaled, not durable")

// repairTornTailLocked recovers from a failed frame write: truncate the
// active segment back to the end of its last whole group (w.size) so the
// next append lands where the refused one began. If even the truncate
// fails, the segment is abandoned for a fresh one — the abandoned tail
// reads as corrupt at the next open, but every frame before it still
// replays (the segment is retained, never compacted away). Callers hold
// w.mu.
func (w *WAL) repairTornTailLocked() {
	if w.f.Truncate(w.size) == nil {
		if _, err := w.f.Seek(w.size, io.SeekStart); err == nil {
			return
		}
	}
	w.f.Sync() // best effort for the acknowledged frames being abandoned
	w.f.Close()
	w.dirty = false
	if err := w.nextSegment(); err != nil {
		// No usable segment: the journal is broken; fail later appends
		// loudly rather than acknowledge writes it cannot hold.
		w.f = nil
	}
}

// rotateLocked switches to the next segment and closes the active one —
// in that order, so a journal that cannot rotate goes on appending where
// it was. Entries in closed segments were applied or compensated, so the
// closed segments are discarded — by makeAhead if the next was made ahead
// — unless a compensation could not be healed: then every closed segment
// is retained for the next open's replay.
func (w *WAL) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	active, closed, madeAhead := w.f, w.segmentPath(w.seq), w.next != nil
	if err := w.nextSegment(); err != nil {
		return err
	}
	w.stale = append(w.stale, closed)
	w.rotations.Add(1)
	if err := active.Close(); err != nil {
		return fmt.Errorf("history: wal rotate: %w", err)
	}
	if madeAhead || w.unsafeCompact {
		return nil
	}
	return w.compactLocked()
}

// compactLocked removes the closed segments. Callers hold w.mu.
func (w *WAL) compactLocked() error {
	for ; len(w.stale) > 0; w.stale = w.stale[1:] {
		if err := w.fs.Remove(w.stale[0]); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("history: wal compact: %w", err)
		}
		w.segments--
	}
	return nil
}

// syncLocked fsyncs the active segment. Callers hold w.mu.
func (w *WAL) syncLocked() error {
	if !w.dirty {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("history: wal sync: %w", err)
	}
	w.dirty = false
	w.lastSync = time.Now()
	w.syncs.Add(1)
	return nil
}

// Sync flushes buffered frames to stable storage regardless of policy.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	return w.syncLocked()
}

// markUnsafe records that the record files may lag the journal (a
// compensating entry could not be healed); segment discarding stops
// until the next open replays everything.
func (w *WAL) markUnsafe() {
	w.mu.Lock()
	w.unsafeCompact = true
	w.mu.Unlock()
}

// Close syncs and closes the journal, and removes an unused segment made
// ahead. Further appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.syncLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if w.next != nil {
		w.next.Close()
		w.fs.Remove(w.segmentPath(w.seq + 1))
		w.next, w.segments = nil, w.segments-1
	}
	w.f = nil
	return err
}

// Stats snapshots the journal's counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	segments := w.segments
	w.mu.Unlock()
	return WALStats{
		Appends:   w.appends.Load(),
		Syncs:     w.syncs.Load(),
		Rotations: w.rotations.Load(),
		Segments:  segments,
	}
}

// Dir returns the journal directory.
func (w *WAL) Dir() string { return w.dir }
