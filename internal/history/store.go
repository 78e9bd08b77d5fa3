package history

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metric"
)

// Store is the experiment-store service layer: a concurrency-safe façade
// over a pluggable Backend that maintains an in-memory index of decoded
// records (app → version → run id), so Query and PersistentBottlenecks
// never re-read or re-unmarshal stored files per call. The paper's
// Section 6 calls for exactly this infrastructure for "storing, naming,
// and querying multi-execution performance data".
//
// All methods are safe for concurrent use. Records handed out by Load,
// LoadAll and Query are shared with the index and must be treated as
// read-only; the store interns one decoded copy per record, which also
// makes pointer identity usable as record identity downstream (the
// directive harvest cache keys on it). Beside each record the index
// keeps the sum of the bytes its file holds, when those are its
// canonical encoding, so that LoadStored can hand those bytes out
// instead of encoding the record again.
type Store struct {
	backend Backend

	// wal is the write-ahead journal of durable stores (nil otherwise).
	// walMu serializes journal append + backend mutation per write, so
	// the journal's per-key fold always names the backend's final state.
	wal   *WAL
	walMu sync.Mutex

	mu       sync.RWMutex
	recs     map[RecordKey]indexed
	issues   []ScanIssue
	recovery *RecoveryReport

	// stages, once a server observes the store, takes the time of each
	// stage of a commit (ObserveStages).
	stages atomic.Pointer[metric.Stages]
}

// ObserveStages has every later commit record its stages in st, under
// op "commit": gate (the wait for the store's one-commit-at-a-time
// lock), journal (the group's write and sync), stage (the record files
// still being staged once the journal is durable) and publish (renames
// and the directory sync, or the plain backend's writes).
func (s *Store) ObserveStages(st *metric.Stages) { s.stages.Store(st) }

// NewStore opens (creating if needed) a filesystem-backed store rooted
// at dir — the historical on-disk format, readable across tool sessions —
// with OpenStore's crash recovery.
func NewStore(dir string) (*Store, error) {
	return OpenStoreDurable(dir, DurableOptions{Create: true})
}

// DurableOptions configures OpenStoreDurable.
type DurableOptions struct {
	// Create makes the store directory when absent instead of failing
	// (NewStore).
	Create bool
	// WAL enables the write-ahead journal under <dir>/wal: Save and
	// Delete append there before the backend mutation, and the journal
	// tail is replayed into the record files at the next open.
	WAL bool
	// WALOptions tunes the journal; the zero value means fsync on every
	// append and 4 MiB segments.
	WALOptions WALOptions
	// Wrap, when non-nil, wraps the filesystem backend before the store
	// is built over it — the seam a tracing decorator times the backend
	// at. A wrapped backend is written a Put or Delete per mutation,
	// without the staged commit, and the journal replays through it too.
	Wrap func(Backend) Backend
	// Faults, when non-nil, hands each shard (shard 0 of a plain store)
	// its own fault injector, or nil: the fsys of its record directory and
	// journal, armed once the store is open — the chaos tooling's seam.
	Faults func(shard int) *Faults

	// The remaining fields apply only to sharded layouts (OpenSharded /
	// OpenStoreAuto); OpenStoreDurable ignores them.

	// ShardTimeout bounds each shard's contribution to a scatter-gather
	// read; a shard missing the deadline is treated as absent for that
	// call. Zero means 2s.
	ShardTimeout time.Duration
	// ShardBreakerThreshold is the consecutive-backend-failure count
	// that marks a shard down until a Ping revives it. Zero means 3.
	ShardBreakerThreshold int
	// Replicas records the follower count the deployment expects per
	// shard in the layout manifest (0 = unreplicated). Informational for
	// the store itself; the replication layer reads it back.
	Replicas int
}

// OpenStoreDurable opens a filesystem-backed store with the durability
// ladder of DESIGN.md §10: it plans the directory's recovery in one
// read-only pass (planRecovery) and carries the plan out — temp-file
// sweep, renaming records found under a non-canonical file name,
// write-ahead-journal replay through the store's commit path (so a torn
// rename or a crash mid-write never loses an acknowledged record), the
// journal restart, then the quarantine of whatever is still unreadable.
// The order matters — a record the journal can roll forward is repaired,
// not quarantined. Recovery reports what was done. A store written
// before the journal existed (no wal/ directory) opens cleanly with an
// empty journal.
func OpenStoreDurable(dir string, o DurableOptions) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("history: empty store directory")
	}
	if !o.Create {
		fi, err := os.Stat(dir)
		if err != nil {
			return nil, fmt.Errorf("history: open store: %w", err)
		}
		if !fi.IsDir() {
			return nil, fmt.Errorf("history: open store: %s is not a directory", dir)
		}
	}
	fb, err := NewFSBackend(dir)
	if err != nil {
		return nil, err
	}
	var faults *Faults
	if o.Faults != nil {
		if faults = o.Faults(0); faults != nil {
			fb.fs = faults
		}
	}
	st := &Store{backend: fb}
	if o.Wrap != nil {
		st.backend = o.Wrap(fb)
	}
	p, err := planRecovery(dir, o.WAL)
	if err != nil {
		return nil, fmt.Errorf("history: recover store: %w", err)
	}
	if err := st.carryOut(fb, p, o.WALOptions); err != nil {
		return nil, err
	}
	if o.WAL {
		// A journaled store is a server's, written for as long as it is
		// open; a one-shot tool's single write would pay a pool's creates
		// and removals for one file.
		fb.spares = &sparePool{wal: st.wal}
	}
	if faults != nil {
		faults.arm(dir)
	}
	return st, nil
}

// NewMemStore creates a store over a fresh in-memory backend.
func NewMemStore() *Store {
	s, _ := NewStoreWith(NewMemBackend()) // a memory scan cannot fail
	return s
}

// NewStoreWith opens a store over any backend, indexing its current
// contents.
func NewStoreWith(b Backend) (*Store, error) {
	if b == nil {
		return nil, fmt.Errorf("history: nil backend")
	}
	s := &Store{backend: b}
	if err := s.Refresh(); err != nil {
		return nil, err
	}
	return s, nil
}

// Backend returns the storage engine beneath the store.
func (s *Store) Backend() Backend { return s.backend }

// Dir returns the store's directory for filesystem-backed stores and ""
// otherwise. A backend wrapper (DurableOptions.Wrap) is seen through when
// it has an Inner method, so the directory survives a tracing decorator —
// the session journal and quarantine paths must land inside the store
// either way.
func (s *Store) Dir() string {
	if fb := s.fsBackend(); fb != nil {
		return fb.Dir()
	}
	return ""
}

// fsBackend is the FSBackend beneath the store, seen through wrappers
// with an Inner method; nil for any other backend.
func (s *Store) fsBackend() *FSBackend {
	b := s.backend
	for {
		if fb, ok := b.(*FSBackend); ok {
			return fb
		}
		w, ok := b.(interface{ Inner() Backend })
		if !ok {
			return nil
		}
		b = w.Inner()
	}
}

// Refresh rebuilds the index from a full backend scan, picking up
// records written behind the store's back. Corrupt or invalid entries
// are skipped and reported via ScanIssues.
func (s *Store) Refresh() error {
	entries, issues, err := s.backend.Scan()
	if err != nil {
		return &BackendError{Op: "scan", Err: err}
	}
	found := make([]scannedRecord, 0, len(entries))
	for _, e := range entries {
		rec, canonical, err := decodeStored(e.Data)
		if err != nil {
			issues = append(issues, ScanIssue{Name: e.Name, Err: err})
			continue
		}
		found = append(found, scannedRecord{name: e.Name, rec: rec, data: e.Data, canonical: canonical})
	}
	s.setIndex(found, issues)
	return nil
}

// scannedRecord is one decodable entry of a scan: the decoded record, the
// name it was stored under, the bytes it was decoded from and whether
// they are its canonical encoding (the plan's broken files have no rec).
type scannedRecord struct {
	name      string
	rec       *RunRecord
	data      []byte
	canonical bool
}

// indexed is one record of the index: the decoded copy every read hands
// out, and the sum of its file's bytes.
type indexed struct {
	rec *RunRecord
	sum fileSum
}

// fileSum is the length and CRC-32C of a record file's bytes, kept only
// when they are the record's canonical encoding — the bytes EncodeRecord
// would write. The zero value vouches for nothing: a file found in
// another spelling (hand-written, compact, legacy) is served encoded.
type fileSum struct {
	n   int
	crc uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sumOf sums data, a record's canonical encoding.
func sumOf(data []byte) fileSum {
	return fileSum{n: len(data), crc: crc32.Checksum(data, castagnoli)}
}

// holds reports whether data are the bytes f was taken of.
func (f fileSum) holds(data []byte) bool {
	return f.n > 0 && len(data) == f.n && crc32.Checksum(data, castagnoli) == f.crc
}

// setIndex replaces the index with a scan's outcome, summing each file
// that holds its record's canonical encoding.
func (s *Store) setIndex(found []scannedRecord, issues []ScanIssue) {
	recs := make(map[RecordKey]indexed, len(found))
	for _, f := range found {
		ent := indexed{rec: f.rec}
		if f.canonical {
			ent.sum = sumOf(f.data)
		}
		recs[f.rec.Key()] = ent
	}
	s.mu.Lock()
	s.recs = recs
	s.issues = issues
	s.mu.Unlock()
}

// ScanIssues returns the entries the last scan (or subsequent loads)
// skipped as unreadable or invalid.
func (s *Store) ScanIssues() []ScanIssue {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ScanIssue, len(s.issues))
	copy(out, s.issues)
	return out
}

// decodeStored decodes and validates one encoded record — the check
// every byte read from disk or the network passes before it is served —
// and says whether data is the record's canonical encoding, byte for
// byte: the verdict DecodePut reads a put body with. The codec's strict
// decoder reads what this tree writes; anything it bails on is
// encoding/json's to decode or to refuse, and not canonical.
func decodeStored(data []byte) (rec *RunRecord, canonical bool, err error) {
	d := Decoder{data: data, canon: true}
	rec = &RunRecord{}
	RecordShape.Decode(&d, rec)
	canonical = d.canon && !d.bad && d.pos == len(data) && data[0] == '{'
	if !d.End() {
		canonical, rec = false, &RunRecord{}
		if err := json.Unmarshal(data, rec); err != nil {
			return nil, false, fmt.Errorf("history: unmarshal: %w", err)
		}
	}
	if err := rec.Validate(); err != nil {
		return nil, false, err
	}
	return rec, canonical, nil
}

// decodeRecord is decodeStored without the verdict.
func decodeRecord(data []byte) (*RunRecord, error) {
	rec, _, err := decodeStored(data)
	return rec, err
}

// mutation is one store write ready to commit: the journal entry —
// validated, and for puts carrying the record's encoded bytes — plus
// the decoded copy the index will hold (nil for deletes). A record is
// validated and encoded at most once, where its mutation is built;
// everything downstream moves these bytes.
type mutation struct {
	WALEntry
	rec *RunRecord
	sum fileSum // of Data, when it is rec's canonical encoding
}

// mutation validates e's record and takes it for the index as it is,
// with the bytes it came with or else the one EncodeRecord that fixes
// its file bytes. Either way the record equals what decoding those bytes
// would yield (Validate admits nothing the encoder would rewrite or
// could not spell), so they are never decoded again on this node; and
// either way they are canonical, so they are summed here, outside the
// commit's lock.
func (e Encoded) mutation() (mutation, error) {
	if err := e.rec.Validate(); err != nil {
		return mutation{}, err
	}
	m := mutation{WALEntry: WALEntry{Op: walOpPut, App: e.rec.App, Version: e.rec.Version, RunID: e.rec.RunID, Data: e.data}, rec: e.rec}
	if m.Data == nil {
		m.Data = EncodeRecord(e.rec)
	}
	m.sum = sumOf(m.Data)
	return m, nil
}

// detach wraps records their caller keeps for a write: the index holds
// a field-wise clone of each, out of the reach of a caller that goes on
// mutating its own.
func detach(recs ...*RunRecord) []Encoded {
	out := make([]Encoded, len(recs))
	for i, rec := range recs {
		if rec != nil {
			out[i].rec = rec.clone()
		}
	}
	return out
}

// StoredEntry is the put entry of a valid record: its key and the bytes
// it is stored under. The encoding is a pure function of the record, so
// for a record the store handed out these are the bytes its file and its
// journal frame hold — the form a record takes on every path between
// replicas, and what Record reads back.
func StoredEntry(rec *RunRecord) WALEntry {
	return WALEntry{Op: walOpPut, App: rec.App, Version: rec.Version, RunID: rec.RunID, Data: EncodeRecord(rec)}
}

// Record decodes the record a put entry carries — this node's one decode
// of bytes that arrived already encoded: decoded by the codec, validated,
// and refused when it identifies as another key than the entry's.
func (e WALEntry) Record() (*RunRecord, error) {
	rec, _, err := e.stored()
	return rec, err
}

// stored is Record, saying too whether e.Data is the record's canonical
// encoding.
func (e WALEntry) stored() (*RunRecord, bool, error) {
	rec, canonical, err := decodeStored(e.Data)
	if err != nil {
		return nil, false, err
	}
	if rec.Key() != e.Key() {
		return nil, false, fmt.Errorf("record identifies as %s", rec.Key())
	}
	return rec, canonical, nil
}

// putMutations builds a batch's mutations, validating every record
// before any is written: a malformed batch fails whole. The error of a
// batch of one is its record's own.
func putMutations(recs []Encoded) ([]mutation, error) {
	ms := make([]mutation, len(recs))
	for i, e := range recs {
		if e.rec == nil {
			return nil, fmt.Errorf("history: batch record %d is nil", i)
		}
		var err error
		if ms[i], err = e.mutation(); err != nil && len(recs) > 1 {
			return nil, fmt.Errorf("history: batch record %d: %w", i, err)
		} else if err != nil {
			return nil, err
		}
	}
	return ms, nil
}

// deleteMutation builds the removal of key.
func deleteMutation(key RecordKey) mutation {
	return mutation{WALEntry: WALEntry{Op: walOpDelete, App: key.App, Version: key.Version, RunID: key.RunID}}
}

// journaledMutation builds the mutation an entry that arrived already
// encoded — replicated or handed over from a primary, or read back from
// the journal — stands for. Its bytes came from outside this process, so
// a put's payload passes Record first, and is summed only when it is the
// record's canonical encoding.
func journaledMutation(e WALEntry) (mutation, error) {
	switch e.Op {
	case walOpPut:
		rec, canonical, err := e.stored()
		m := mutation{WALEntry: e, rec: rec}
		if canonical {
			m.sum = sumOf(e.Data)
		}
		return m, err
	case walOpDelete:
		return mutation{WALEntry: e}, nil
	}
	return mutation{}, fmt.Errorf("unknown op %q", e.Op)
}

// foldMutations reduces journal entries to the one mutation per key a
// replay commits (the journal is sequential, so a key's last entry is
// its last acknowledged or compensated state), in key order. Entries
// whose payload fails validation are left out and described in invalid.
func foldMutations(entries []WALEntry) (ms []mutation, invalid []string) {
	fold := WALFold(entries)
	keys := make([]RecordKey, 0, len(fold))
	for k := range fold {
		keys = append(keys, k)
	}
	sortKeys(keys)
	for _, k := range keys {
		m, err := journaledMutation(fold[k])
		if err != nil {
			invalid = append(invalid, fmt.Sprintf("entry %s: %v", k, err))
			continue
		}
		ms = append(ms, m)
	}
	return ms, invalid
}

// commitMode says whose decision a commit carries out.
type commitMode int

const (
	// commitWrite is a caller's write. Deleting an absent record is that
	// caller's answer: os.ErrNotExist, and the end of the batch.
	commitWrite commitMode = iota
	// commitReplicated folds a primary's journal frames into a follower.
	// The outcome was the primary's to decide, so a delete of a record
	// already absent — a frame delivered twice — converges and the run
	// goes on.
	commitReplicated
	// commitRedo repeats a decided outcome — the replay at open, a
	// compensation: the backend is read first and written only where it
	// disagrees, a failure is returned rather than compensated, and the
	// caller already holds walMu (or, at open, is alone).
	commitRedo
)

// commit is the store's one write path: every mutation — a Save, each
// record of a PutBatch, a Delete, a replicated run, a compensation, the
// journal replay at open — is journaled (durable stores), applied to the
// backend, and only then reflected in the index, in that order, here and
// nowhere else. A commit is three stages over the whole list:
//
//   - journal: the entries go to the journal as one group — one write
//     pass, one fsync. A group the journal cannot take is refused before
//     the backend sees any of it; one it wrote but could not sync fails
//     as a write of its first mutation does.
//   - stage, beside the journal: over a bare FSBackend every put's record
//     file is written and fsynced under a temp name meanwhile — invisible,
//     and removed again if the journal refuses the group. Any other
//     backend (memory, a wrapper) and every redo has no such step.
//   - publish, once the journal is durable and every file staged: the
//     mutations reach the backend in order — staged files renamed, deleted
//     records removed, then one directory fsync for all of them; a plain
//     backend gets its Put or Delete per mutation — and the first failure
//     stops the batch. Only then does the index follow.
//
// wrote is how many mutations changed the backend. Nothing is
// acknowledged that is not journaled, written and named durably; the
// stages only settle how many calls that takes.
//
// A mutation that fails after the group was journaled must not win the
// replay fold — it was never acknowledged, nor was any after it — so the
// pre-image of each is committed as a compensating entry, healing the
// backend in place (a failed write can leave the file torn); when that
// fails too the journal stops compacting until the next open's replay.
func (s *Store) commit(ms []mutation, mode commitMode) (wrote int, err error) {
	if len(ms) == 0 {
		return 0, nil
	}
	redo := mode == commitRedo
	var stages *metric.Stages
	t := time.Now()
	if !redo {
		stages = s.stages.Load()
	}
	if s.wal != nil && !redo {
		s.walMu.Lock()
		defer s.walMu.Unlock()
		t = stages.Since("commit", "gate", t)
	}
	write := func(_ int, m mutation) error {
		if m.Op == walOpDelete {
			return s.backend.Delete(m.Key())
		}
		return s.backend.Put(m.Key(), m.Data)
	}
	fb, _ := s.backend.(*FSBackend)
	var staged *staging
	if fb != nil && !redo {
		staged = fb.stageAll(ms)
		defer staged.discard()
		write = staged.write
	}
	// ms[:done] stand in the backend; fail is why the rest do not.
	done, op, fail := 0, "", error(nil)
	if s.wal != nil {
		entries := make([]WALEntry, len(ms))
		for i, m := range ms {
			entries[i] = m.WALEntry
		}
		if err := s.wal.AppendGroup(entries); errors.Is(err, errUnsynced) {
			// Written, and perhaps shipped, but not durable: nothing of it is
			// acknowledged, and it is compensated below as a failed write is.
			op, fail = "wal append", err
		} else if err != nil {
			return 0, asBackendError("wal append", err)
		}
		t = stages.Since("commit", "journal", t)
	}
	if staged != nil {
		staged.wg.Wait()
		t = stages.Since("commit", "stage", t)
	}
	for done < len(ms) && fail == nil {
		m := ms[done]
		op = m.Op
		stale := true
		if redo {
			if stale, fail = s.disagrees(m); fail != nil {
				op = "get"
				break
			}
		}
		if stale {
			fail = write(done, m)
		}
		// Deleting an absent record is an answer, not a failure: absent is
		// what was journaled, so the entry stands and nothing needs
		// compensating; only a caller whose write it is hears about it.
		miss := m.Op == walOpDelete && errors.Is(fail, os.ErrNotExist)
		if miss && mode != commitWrite {
			fail = nil
		}
		if fail != nil && !miss {
			break
		}
		done++
		if stale && fail == nil {
			wrote++
		}
	}
	if staged != nil && wrote > 0 {
		// One directory fsync names every rename and removal of the commit.
		// Until it returns none of them is acknowledged.
		if err := fb.syncRecords("write"); err != nil {
			done, wrote, op, fail = 0, 0, ms[0].Op, err
		}
	}
	stages.Since("commit", "publish", t)
	s.mu.Lock()
	for _, m := range ms[:done] {
		if m.rec != nil {
			s.recs[m.Key()] = indexed{rec: m.rec, sum: m.sum}
		} else {
			delete(s.recs, m.Key())
		}
	}
	s.mu.Unlock()
	if fail == nil {
		return wrote, nil
	}
	if s.wal != nil && !redo && done < len(ms) {
		pre := make([]mutation, len(ms)-done)
		for i, m := range ms[done:] {
			pre[i] = s.preImage(m.Key())
		}
		if _, err := s.commit(pre, commitRedo); err != nil {
			s.wal.markUnsafe()
		}
	}
	// Classified as a backend failure so the service layer can degrade
	// instead of blaming the caller. The index never holds a record the
	// backend rejected.
	return wrote, asBackendError(op, fail)
}

// disagrees reports whether the backend does not yet hold what m decided.
func (s *Store) disagrees(m mutation) (bool, error) {
	cur, err := s.backend.Get(m.Key())
	switch {
	case errors.Is(err, os.ErrNotExist):
		return m.Op == walOpPut, nil
	case err != nil:
		return false, err
	}
	return m.Op == walOpDelete || !bytes.Equal(cur, m.Data), nil
}

// preImage builds the mutation that sets key to its last acknowledged
// state — what the index holds. The indexed copy is the decode of the
// stored bytes, or a record equal to it, and the encoding is a pure
// function of the record, so re-encoding it yields exactly the bytes
// the acknowledged write stored: a healed file, or a follower's copy of
// a snapshot entry, is byte-identical to it.
func (s *Store) preImage(key RecordKey) mutation {
	s.mu.RLock()
	prev, ok := s.recs[key]
	s.mu.RUnlock()
	if !ok {
		return deleteMutation(key)
	}
	e := StoredEntry(prev.rec)
	return mutation{WALEntry: e, rec: prev.rec, sum: sumOf(e.Data)}
}

// Save writes (or overwrites) a record — a batch of one. The index
// caches its own copy, detached from the caller's pointer.
func (s *Store) Save(rec *RunRecord) error {
	_, err := s.PutEncoded(detach(rec))
	return err
}

// PutBatch writes records in input order, stopping at the first
// failure. Every record is validated before anything is written, so a
// malformed batch fails whole without partial effects; a backend
// failure mid-batch leaves the earlier records saved and reports how
// many.
func (s *Store) PutBatch(recs []*RunRecord) (int, error) { return s.PutEncoded(detach(recs...)) }

// PutEncoded is PutBatch for records decoded from put bodies: each is
// written under the bytes it arrived in when they are canonical, and
// indexed as it was decoded.
func (s *Store) PutEncoded(recs []Encoded) (int, error) {
	ms, err := putMutations(recs)
	if err != nil {
		return 0, err
	}
	return s.commit(ms, commitWrite)
}

// Load reads one record by app, version and run id. The returned record
// is shared with the index: treat it as read-only.
func (s *Store) Load(app, version, runID string) (*RunRecord, error) {
	ent, err := s.entry(RecordKey{App: app, Version: version, RunID: runID})
	return ent.rec, err
}

// LoadStored is Load plus the bytes the record's file holds, when they
// are its canonical encoding: read outside the index lock, and handed
// out only if their length and CRC-32C match the sum the index keeps
// beside the record. Otherwise data is nil and the caller encodes rec,
// which yields what those bytes would have been: for a file found in
// another spelling (no sum), a failed read, a file removed or rewritten
// behind the store's back, or an overwrite racing the read. None of
// those is an error — a read that serves the index copy instead does
// not fail, and feeds no breaker. A miss is Load's.
func (s *Store) LoadStored(app, version, runID string) (rec *RunRecord, data []byte, err error) {
	key := RecordKey{App: app, Version: version, RunID: runID}
	ent, err := s.entry(key)
	if err != nil {
		return nil, nil, err
	}
	return ent.rec, s.fileBytes(key, ent), nil
}

// fileBytes reads key's record file and returns its bytes when they
// check out against ent's sum, nil otherwise.
func (s *Store) fileBytes(key RecordKey, ent indexed) []byte {
	if ent.sum.n > 0 {
		if data, err := s.backend.Get(key); err == nil && ent.sum.holds(data) {
			return data
		}
	}
	return nil
}

// shipped is the put entries of index entries, as a follower is sent
// them: the bytes each file holds when they check out against the entry's
// sum, read outside every lock, else the entry's record encoded — the same
// bytes.
func (s *Store) shipped(keys []RecordKey, ents []indexed) []WALEntry {
	out := make([]WALEntry, len(keys))
	for i, k := range keys {
		data := s.fileBytes(k, ents[i])
		if data == nil {
			data = EncodeRecord(ents[i].rec)
		}
		out[i] = WALEntry{Op: walOpPut, App: k.App, Version: k.Version, RunID: k.RunID, Data: data}
	}
	return out
}

// LoadEntry is Load's record as the put entry a replica ships (shipped).
// A miss is Load's.
func (s *Store) LoadEntry(app, version, runID string) (WALEntry, error) {
	key := RecordKey{App: app, Version: version, RunID: runID}
	ent, err := s.entry(key)
	if err != nil {
		return WALEntry{}, err
	}
	return s.shipped([]RecordKey{key}, []indexed{ent})[0], nil
}

// LoadEntries is LoadAll's records as LoadEntry ships each one.
func (s *Store) LoadEntries(app, version string) []WALEntry {
	return s.shipped(s.listed(ofApp(app, version)))
}

// ofApp matches the keys of app, and of version when it is non-empty.
func ofApp(app, version string) func(RecordKey) bool {
	return func(k RecordKey) bool { return k.App == app && (version == "" || k.Version == version) }
}

// listed lists the index entries whose keys keep matches — all of them
// for a nil keep — ordered by key.
func (s *Store) listed(keep func(RecordKey) bool) ([]RecordKey, []indexed) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]RecordKey, 0, len(s.recs))
	for k := range s.recs {
		if keep == nil || keep(k) {
			keys = append(keys, k)
		}
	}
	sortKeys(keys)
	ents := make([]indexed, len(keys))
	for i, k := range keys {
		ents[i] = s.recs[k]
	}
	return keys, ents
}

// entry is key's index entry. A key not indexed falls through to the
// backend, for a record written behind the store's back since the last
// Refresh, which is indexed with the sum of the bytes just decoded when
// they are canonical.
func (s *Store) entry(key RecordKey) (indexed, error) {
	s.mu.RLock()
	ent, ok := s.recs[key]
	s.mu.RUnlock()
	if ok {
		return ent, nil
	}
	data, err := s.backend.Get(key)
	if err != nil {
		return indexed{}, asBackendError("get", err)
	}
	rec, canonical, err := decodeStored(data)
	if err != nil {
		return indexed{}, err
	}
	if rec.Key() != key {
		// Identity comes from the content, not the file name.
		return indexed{}, fmt.Errorf("history: load %s: record identifies as %s", key, rec.Key())
	}
	ent = indexed{rec: rec}
	if canonical {
		ent.sum = sumOf(data)
	}
	s.mu.Lock()
	if prev, ok := s.recs[key]; ok {
		ent = prev // another goroutine indexed it first; keep one copy
	} else {
		s.recs[key] = ent
	}
	s.mu.Unlock()
	return ent, nil
}

// Delete removes one record from the backend and the index.
func (s *Store) Delete(app, version, runID string) error {
	_, err := s.commit([]mutation{deleteMutation(RecordKey{App: app, Version: version, RunID: runID})}, commitWrite)
	return err
}

// WAL returns the store's write-ahead journal, or nil when the store was
// not opened durable.
func (s *Store) WAL() *WAL { return s.wal }

// SyncWAL flushes the journal to stable storage regardless of the sync
// policy — the shutdown barrier pcd runs before exit so an interval or
// none policy loses nothing on a graceful stop. A store without a
// journal has nothing to flush.
func (s *Store) SyncWAL() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Sync()
}

// Apply commits entries that arrived already encoded, in order — the
// writes a primary hands over to the follower that owns a shard's
// keyspace (ShardReplica), each the entry the primary's own shard store
// would have committed. Every entry is decoded and checked before any is
// written, so a damaged batch fails whole; from there it is PutBatch:
// the first failure stops the batch and wrote is how many landed.
// The entries are one group in this store's own journal and their exact
// bytes are written to the backend, so each record file is byte-identical
// to the one the sender would have written.
func (s *Store) Apply(entries []WALEntry) (wrote int, err error) {
	ms, err := journaledMutations(entries)
	if err != nil {
		return 0, err
	}
	return s.commit(ms, commitWrite)
}

// journaledMutations checks entries, decoding them on up to GOMAXPROCS
// goroutines; the first that does not check out ends the list: it
// answers the mutations of those before it and an error naming the
// offender's position.
func journaledMutations(entries []WALEntry) ([]mutation, error) {
	ms, errs := make([]mutation, len(entries)), make([]error, len(entries))
	eachParallel(len(entries), func(i int) { ms[i], errs[i] = journaledMutation(entries[i]) })
	for i, err := range errs {
		if err != nil {
			return ms[:i], fmt.Errorf("history: entry %d (%s): %w", i, entries[i].Key(), err)
		}
	}
	return ms, nil
}

// eachParallel calls f for every index below n on up to GOMAXPROCS
// goroutines, each taking every workers-th index, and returns when all
// calls have.
func eachParallel(n int, f func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := range n {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range workers {
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// ApplyRun folds a run of a primary's journal entries into the store as
// one commit (the follower's durability holds independently of the
// primary's, and a replicated record file is byte-identical to the
// primary's). It differs from Apply where a follower must: the entries
// ahead of one that does not check out are still applied — they were
// acknowledged on the primary — and a delete of a record already absent
// does not stop the run, so re-applying entries the store already
// reflects is a no-op in effect and replication retries and restarts
// converge rather than diverge. applied is how many entries, from the
// first, the store now reflects.
func (s *Store) ApplyRun(entries []WALEntry) (applied int, err error) {
	ms, bad := journaledMutations(entries)
	if applied, err = s.commit(ms, commitReplicated); err != nil {
		return applied, err
	}
	return applied, bad
}

// ApplyReplicated folds one replicated journal entry into the store —
// ApplyRun of one.
func (s *Store) ApplyReplicated(e WALEntry) error {
	_, err := s.ApplyRun([]WALEntry{e})
	return err
}

// ReplicaSnapshot captures a consistent image of the store for follower
// bootstrap: the journal position (epoch, seq) plus every record as a
// put entry carrying the exact stored bytes. The position and the index
// entries are taken together under the journal lock, so they reflect a
// point between writes — a follower that installs the image and then
// replays frames after seq converges to the primary. The files are read
// after the lock is released: a file a later commit rewrote no longer
// checks out against the entry taken, and ships as that entry's record
// encoded, the bytes it held. Requires a durable (journaled) store.
func (s *Store) ReplicaSnapshot() (epoch, seq uint64, entries []WALEntry, err error) {
	if s.wal == nil {
		return 0, 0, nil, fmt.Errorf("history: replica snapshot: store has no journal")
	}
	s.walMu.Lock()
	epoch = s.wal.Epoch()
	seq = s.wal.Stats().Appends
	keys, ents := s.listed(nil)
	s.walMu.Unlock()
	return epoch, seq, s.shipped(keys, ents), nil
}

// Close removes the store's spare record files and flushes and closes
// its journal (if any). The store's read side keeps working; further
// Save/Delete calls fail in WAL mode.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	if fb := s.fsBackend(); fb != nil {
		fb.closeSpares()
	}
	return s.wal.Close()
}

// Keys returns every indexed record key, ordered by (app, version,
// run id).
func (s *Store) Keys() []RecordKey {
	s.mu.RLock()
	keys := make([]RecordKey, 0, len(s.recs))
	for k := range s.recs {
		keys = append(keys, k)
	}
	s.mu.RUnlock()
	sortKeys(keys)
	return keys
}

// Len returns the number of indexed records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs)
}

// List returns the stored records' display names
// (app[-version]-runid), sorted. Unreadable entries are skipped; see
// ScanIssues. The error return is kept for interface stability — an
// open store lists from its index and cannot fail.
func (s *Store) List() ([]string, error) { return displayNames(s.Keys()), nil }

// displayNames renders keys in display form, sorted.
func displayNames(keys []RecordKey) []string {
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, k.String())
	}
	sort.Strings(out)
	return out
}

// LoadAll returns every indexed record whose app (and version, when
// non-empty) matches, ordered by key. Records are shared with the
// index: treat them as read-only.
func (s *Store) LoadAll(app, version string) ([]*RunRecord, error) {
	_, ents := s.listed(ofApp(app, version))
	out := make([]*RunRecord, len(ents))
	for i, ent := range ents {
		out[i] = ent.rec
	}
	return out, nil
}

// asBackendError wraps err as a BackendError unless it already is one
// (a down shard's refusal is classified where it is made).
func asBackendError(op string, err error) error {
	var be *BackendError
	if errors.As(err, &be) {
		return err
	}
	return &BackendError{Op: op, Err: err}
}

// Ping probes the backend with a cheap read. It returns nil while the
// engine answers (a miss counts as an answer) and the failure otherwise
// — the health check the diagnosis service uses to notice a degraded
// store recovering without being restarted.
func (s *Store) Ping() error {
	_, err := s.backend.Get(RecordKey{App: "\x00ping", RunID: "\x00ping"})
	if err == nil || errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return asBackendError("get", err)
}

// Key returns the record's store key.
func (r *RunRecord) Key() RecordKey {
	return RecordKey{App: r.App, Version: r.Version, RunID: r.RunID}
}

// promotedState reads a store's replica/STATE.json for a promoted
// shard: the file's path, the parsed document (read generically — the
// replica package owns its schema) and the epoch it records. ok is
// false when there is no state file, when it is torn (the replica layer
// restarts from zero), or when the shard is not promoted — an
// unpromoted follower's state epoch tracks its remote primary's
// journal, not the local one.
func promotedState(storeDir string) (spath string, st map[string]any, epoch uint64, ok bool) {
	spath = filepath.Join(storeDir, "replica", "STATE.json")
	data, err := os.ReadFile(spath)
	if err != nil || json.Unmarshal(data, &st) != nil {
		return spath, nil, 0, false
	}
	if promoted, _ := st["promoted"].(bool); !promoted {
		return spath, nil, 0, false
	}
	cur, _ := st["epoch"].(float64)
	return spath, st, uint64(cur), true
}

// syncPromotedStateEpoch rewrites a promoted shard's replica/STATE.json
// epoch to the journal's generation. StartWAL bumps the generation at
// every open, and the state file — the epoch a promoted node advertises
// and persists across restarts — must track it, or the node would fence
// against its own journal.
func syncPromotedStateEpoch(fs fsys, storeDir string, epoch uint64) error {
	spath, st, cur, ok := promotedState(storeDir)
	if !ok || cur == epoch {
		return nil
	}
	st["epoch"] = epoch
	out, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(fs, spath, ".state-*.tmp", append(out, '\n'))
}
