package history

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/metric"
)

// ShardsDirName is the subdirectory of a sharded store root that holds
// the per-shard stores and the layout manifest.
const ShardsDirName = "shards"

// shardManifestName is the layout manifest inside the shards directory.
// It pins the shard count and hash scheme; opening with a mismatched
// -shards value is an error, not a silent resharding.
const shardManifestName = "MANIFEST.json"

// shardHashScheme names the routing function the manifest pins:
// FNV-1a(64) over app NUL version, folded through the jump consistent
// hash. Changing the scheme would silently orphan every stored record,
// so opens reject manifests naming anything else.
const shardHashScheme = "fnv64a-jump"

// parseShardManifest decodes and validates a layout manifest: opens and
// pcfsck both refuse one that is corrupt, names a routing function this
// build does not speak, or pins no shards.
func parseShardManifest(data []byte) (shardManifest, error) {
	var m shardManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("corrupt manifest: %w", err)
	}
	if m.Hash != shardHashScheme {
		return m, fmt.Errorf("manifest hash scheme %q, this build speaks %q", m.Hash, shardHashScheme)
	}
	if m.Shards < 1 {
		return m, fmt.Errorf("manifest shard count %d", m.Shards)
	}
	return m, nil
}

type shardManifest struct {
	Version int    `json:"version"`
	Shards  int    `json:"shards"`
	Hash    string `json:"hash"`
	// Replicas is the follower count the deployment expects per shard
	// (0 = unreplicated). Manifest version 2 introduced it; version 1
	// manifests read back as Replicas 0 and stay valid.
	Replicas int `json:"replicas,omitempty"`
}

// errShardDown marks operations refused because the target shard is
// down (failed to open, or breaker-tripped on consecutive backend
// failures). It is always wrapped in a BackendError, so the service
// layer classifies it as storage trouble (503 + Retry-After), and it is
// transient: a later Ping can revive the shard.
var errShardDown = errors.New("history: shard down")

// ShardForKey routes a record key to its shard: FNV-1a over
// (app, version) folded through the jump consistent hash. Version-blind
// it is not — the pair is the paper's unit of cross-execution
// comparison, so keeping all runs of one (app, version) on one shard
// makes the common Query/CompareRuns case single-shard.
func ShardForKey(app, version string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New64a()
	io.WriteString(h, app)
	h.Write([]byte{0})
	io.WriteString(h, version)
	return jumpHash(h.Sum64(), shards)
}

// jumpHash is the Lamping–Veach jump consistent hash: O(ln n), no
// tables, and growing the bucket count moves only 1/n of the keys.
func jumpHash(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// shardDirName renders the zero-padded per-shard directory name.
func shardDirName(i int) string { return fmt.Sprintf("%02d", i) }

// ShardRecovery is one shard's slice of a sharded store's recovery
// report: either the shard's own report, or the error that kept it from
// opening at all (in which case the shard starts down).
type ShardRecovery struct {
	Shard int
	// Err is the open failure, "" when the shard opened.
	Err string
	// Report is the shard's own recovery report (nil when open failed).
	Report *RecoveryReport
}

// ShardInfo is one shard's health gauge set — record count, degraded
// flag, last recovery outcome — exported through /statsz.
type ShardInfo struct {
	Shard        int    `json:"shard"`
	Records      int    `json:"records"`
	Degraded     bool   `json:"degraded"`
	LastRecovery string `json:"last_recovery"`
	// Failover reports replica involvement: "" while the local store
	// serves, "reads" while a down shard's reads come from a follower,
	// "promoted" once a follower took over the keyspace for writes too.
	Failover string `json:"failover,omitempty"`
}

// ShardReplica is a replica's serving surface for one shard — the point
// and scan operations ShardedStore redirects to a follower when the
// local shard store is down. Writes travel as what the store has already
// prepared: Apply takes the validated, encoded journal entries a local
// shard would have committed (Store.Apply is the receiving end). The
// replication layer implements it over HTTP; it lives here so the store
// does not import the transport.
type ShardReplica interface {
	Apply(entries []WALEntry) (int, error)
	Load(app, version, runID string) (*RunRecord, error)
	Keys() []RecordKey
	Len() int
	LoadAll(app, version string) ([]*RunRecord, error)
}

// ShardFailover picks replicas for failed shards: Reader returns the
// most-caught-up follower able to serve a shard's reads, Promote hands
// the shard's keyspace to a follower for writes as well (after which the
// local store must never serve it again in this process — promotion is
// one-way until restart).
type ShardFailover interface {
	Reader(shard int) (ShardReplica, bool)
	Promote(shard int) (ShardReplica, error)
}

// shardState is one shard plus its health: a breaker counting
// consecutive backend failures (open = the shard is down) and the last
// error for operators. st is nil while the shard failed to open, which
// also counts as down.
type shardState struct {
	idx int
	dir string
	// brk opens after the store's threshold of consecutive backend
	// failures. Only pingShard closes it — the shard rung never asks it
	// for a probe slot, Ping probes every time it is called.
	brk breaker.Breaker

	mu           sync.Mutex
	st           *Store
	lastErr      string
	lastRecovery string
	// promoted, once set, is the follower that owns this shard's keyspace:
	// every later operation goes there and the local store stays retired
	// (reviving it would fork the keyspace — split brain).
	promoted ShardReplica
	// servedByReplica notes that the last degraded read came from a
	// follower, for the /statsz failover gauge.
	servedByReplica bool
}

// live returns the shard's store when it is up. A promoted shard is
// never live — its keyspace belongs to the follower now.
func (sh *shardState) live() (*Store, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.st == nil || sh.promoted != nil || sh.brk.Open() {
		return nil, false
	}
	return sh.st, true
}

// store returns the shard's local store even while its breaker is open,
// nil while it failed to open.
func (sh *shardState) store() *Store {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.st
}

// replica returns the promoted handle when the shard has been handed
// over.
func (sh *shardState) replica() (ShardReplica, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.promoted, sh.promoted != nil
}

// noteErr feeds the shard breaker with one backend failure; threshold
// consecutive failures mark the shard down until a Ping revives it.
func (sh *shardState) noteErr(threshold int, err error) {
	sh.mu.Lock()
	sh.lastErr = err.Error()
	sh.mu.Unlock()
	sh.brk.Failure(breaker.Policy{Threshold: threshold}, time.Now())
}

// downErr is the error a down shard returns for point operations.
func (sh *shardState) downErr(op string) error {
	sh.mu.Lock()
	msg := sh.lastErr
	sh.mu.Unlock()
	if msg == "" {
		msg = "failed to open"
	}
	return &BackendError{Op: op, Err: fmt.Errorf("%w: shard %s (%s)", errShardDown, shardDirName(sh.idx), msg)}
}

// ShardedStore consistent-hash-routes records by (app, version) across
// N per-shard directories under <root>/shards/NN/, each shard a full
// durable Store with its own WAL, index, quarantine and recovery. Point
// operations route to one shard; Query, List, LoadAll and
// PersistentBottlenecks scatter-gather across live shards under a
// per-shard timeout and merge in canonical key order, which keeps their
// output byte-identical to a single store holding the same records. A
// failed shard degrades to absent (reads skip it, writes to its
// keyspace fail fast as backend errors) instead of taking the store
// down; Ping probes every shard and revives the ones that answer.
type ShardedStore struct {
	dir       string
	n         int
	opts      DurableOptions
	timeout   time.Duration
	threshold int
	shards    []*shardState
	recovery  *RecoveryReport
	replicas  int
	failover  ShardFailover
	promote   bool
	stages    atomic.Pointer[metric.Stages] // handed to every shard store, a reopened one too
}

// ObserveStages has every shard's store record its commit stages in st
// (Store.ObserveStages).
func (s *ShardedStore) ObserveStages(st *metric.Stages) {
	s.stages.Store(st)
	for _, sh := range s.shards {
		if local := sh.store(); local != nil {
			local.ObserveStages(st)
		}
	}
}

// Shards returns the shard count pinned by the store's manifest.
func (s *ShardedStore) Shards() int { return s.n }

// Replicas returns the per-shard follower count the manifest expects
// (0 = unreplicated layout).
func (s *ShardedStore) Replicas() int { return s.replicas }

// Shard returns shard i's local store, even while its breaker is open —
// the replication layer needs the journal handle regardless of serving
// state. ok is false when the shard never opened or i is out of range.
func (s *ShardedStore) Shard(i int) (*Store, bool) {
	if i < 0 || i >= s.n {
		return nil, false
	}
	st := s.shards[i].store()
	return st, st != nil
}

// SetFailover installs the replica seam: f supplies replica handles for
// down shards, so reads fail over to a follower instead of degrading to
// absent, and — with promote — writes do too, via one-way promotion. The
// node calls it once the listener exists, after the store is built.
func (s *ShardedStore) SetFailover(f ShardFailover, promote bool) {
	s.failover = f
	s.promote = promote
}

// FailoverPromote hands shard's keyspace to its most-caught-up follower
// through the failover seam, regardless of whether write-path promotion
// (the -promote opt-in) is armed — this is the failure detector's hook:
// promotion driven by observed sustained death, not by a write tripping
// the breaker. Idempotent; the first promotion wins.
func (s *ShardedStore) FailoverPromote(shard int) error {
	if s.failover == nil {
		return fmt.Errorf("history: shard %02d: no failover seam installed", shard)
	}
	if shard < 0 || shard >= s.n {
		return fmt.Errorf("history: no shard %d", shard)
	}
	_, err := s.promoteShard(s.shards[shard])
	return err
}

// promoteShard hands sh's keyspace to the follower the failover seam
// elects. Idempotent: the first promotion wins, and Promote is
// idempotent on the replica side, so a concurrent racer got the same
// follower anyway.
func (s *ShardedStore) promoteShard(sh *shardState) (ShardReplica, error) {
	if r, ok := sh.replica(); ok {
		return r, nil
	}
	r, err := s.failover.Promote(sh.idx)
	if err != nil {
		return nil, err
	}
	if r == nil {
		return nil, fmt.Errorf("history: shard %02d: promotion elected no follower", sh.idx)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.promoted == nil {
		sh.promoted = r
	}
	return sh.promoted, nil
}

// Dir returns the sharded store's root directory.
func (s *ShardedStore) Dir() string { return s.dir }

// shardOptions derives one shard's open options: every shard is a full
// durable store with the root's WAL settings and wrapper, and shard i's
// fault injector as its shard 0's.
func (s *ShardedStore) shardOptions(i int, create bool) DurableOptions {
	so := DurableOptions{
		Create:     create,
		WAL:        s.opts.WAL,
		WALOptions: s.opts.WALOptions,
		Wrap:       s.opts.Wrap,
	}
	if faults := s.opts.Faults; faults != nil {
		so.Faults = func(int) *Faults { return faults(i) }
	}
	return so
}

// OpenSharded opens (or, with o.Create and n > 0, creates) the sharded
// store rooted at dir. n == 0 takes the shard count from the manifest;
// a non-zero n must match an existing manifest. A shard that fails to
// open does not fail the whole store — it starts down, reported through
// Recovery and ShardStats — unless every shard fails, which is a
// configuration error worth dying for.
func OpenSharded(dir string, n int, o DurableOptions) (*ShardedStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("history: empty store directory")
	}
	shardsDir := filepath.Join(dir, ShardsDirName)
	manifestPath := filepath.Join(shardsDir, shardManifestName)

	var m shardManifest
	data, err := os.ReadFile(manifestPath)
	switch {
	case err == nil:
		if m, err = parseShardManifest(data); err != nil {
			return nil, fmt.Errorf("history: sharded store %s: %w", dir, err)
		}
		if n != 0 && n != m.Shards {
			return nil, fmt.Errorf("history: sharded store %s has %d shards, -shards %d would orphan records (resharding is not automatic)", dir, m.Shards, n)
		}
		n = m.Shards
	case os.IsNotExist(err):
		if !o.Create || n < 1 {
			return nil, fmt.Errorf("history: %s is not a sharded store (no %s)", dir, filepath.Join(ShardsDirName, shardManifestName))
		}
		if n > 99 {
			return nil, fmt.Errorf("history: %d shards exceed the layout's two-digit naming (max 99)", n)
		}
	default:
		return nil, fmt.Errorf("history: sharded store %s: read manifest: %w", dir, err)
	}
	creating := data == nil

	replicas := o.Replicas
	if data != nil && o.Replicas == 0 {
		replicas = m.Replicas
	}
	s := &ShardedStore{
		dir:       dir,
		n:         n,
		opts:      o,
		timeout:   o.ShardTimeout,
		threshold: o.ShardBreakerThreshold,
		replicas:  replicas,
	}
	if s.timeout <= 0 {
		s.timeout = 2 * time.Second
	}
	if s.threshold <= 0 {
		s.threshold = 3
	}

	// The root's own writers — the session journal, the manifest — are no
	// shard's: their orphaned temp files are swept here, before the shards
	// sweep theirs.
	rep := &RecoveryReport{}
	for _, rel := range leftTemp(dir, tempFiles) {
		if err := (osFS{}).Remove(filepath.Join(dir, rel)); err != nil {
			return nil, fmt.Errorf("history: sharded store %s: sweep: %w", dir, err)
		}
		rep.SweptTemp = append(rep.SweptTemp, filepath.ToSlash(rel))
	}
	opened := 0
	var firstErr error
	for i := 0; i < n; i++ {
		sh := &shardState{idx: i, dir: filepath.Join(shardsDir, shardDirName(i))}
		st, err := OpenStoreDurable(sh.dir, s.shardOptions(i, creating))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			sh.lastErr = err.Error()
			sh.lastRecovery = "open failed: " + err.Error()
			rep.Shards = append(rep.Shards, &ShardRecovery{Shard: i, Err: err.Error()})
			s.shards = append(s.shards, sh)
			continue
		}
		opened++
		sh.st = st
		srep := st.Recovery()
		sh.lastRecovery = recoverySummary(srep)
		rep.Shards = append(rep.Shards, &ShardRecovery{Shard: i, Report: srep})
		foldShardRecovery(rep, i, srep)
		s.shards = append(s.shards, sh)
	}
	if opened == 0 {
		return nil, fmt.Errorf("history: sharded store %s: no shard opened: %w", dir, firstErr)
	}
	if creating {
		// The manifest is the layout's commit point: written after the
		// shard directories exist, atomically, so a crash mid-create
		// leaves a re-creatable layout rather than a half-pinned one.
		mv := shardManifest{Version: 1, Shards: n, Hash: shardHashScheme}
		if replicas > 0 {
			// Version 2 = replication-aware manifest. Version is
			// informational (opens validate hash + shard count), so v1
			// readers still open the layout.
			mv.Version = 2
			mv.Replicas = replicas
		}
		mdata, err := json.MarshalIndent(mv, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("history: sharded store %s: encode manifest: %w", dir, err)
		}
		if err := WriteFileAtomic(manifestPath, ".manifest-*.tmp", append(mdata, '\n')); err != nil {
			return nil, fmt.Errorf("history: sharded store %s: write manifest: %w", dir, err)
		}
	}
	s.recovery = rep
	return s, nil
}

// foldShardRecovery folds one shard's recovery report into the root
// aggregate, prefixing names with the shard's directory so the pcd
// startup log names repairable files unambiguously.
func foldShardRecovery(rep *RecoveryReport, i int, srep *RecoveryReport) {
	if srep == nil {
		return
	}
	prefix := path.Join(ShardsDirName, shardDirName(i)) + "/"
	for _, t := range srep.SweptTemp {
		rep.SweptTemp = append(rep.SweptTemp, prefix+t)
	}
	for _, r := range srep.Renamed {
		rep.Renamed = append(rep.Renamed, RenamedEntry{From: prefix + r.From, To: prefix + r.To})
	}
	for _, q := range srep.Quarantined {
		rep.Quarantined = append(rep.Quarantined, QuarantinedEntry{Name: prefix + q.Name, Reason: q.Reason})
	}
	if srep.WAL != nil {
		if rep.WAL == nil {
			rep.WAL = &WALRecovery{}
		}
		rep.WAL.Segments += srep.WAL.Segments
		rep.WAL.Entries += srep.WAL.Entries
		rep.WAL.Replayed += srep.WAL.Replayed
		rep.WAL.TornTail = rep.WAL.TornTail || srep.WAL.TornTail
		for _, c := range srep.WAL.Corrupt {
			rep.WAL.Corrupt = append(rep.WAL.Corrupt, prefix+c)
		}
	}
}

// recoverySummary renders a shard's recovery outcome as the one-line
// gauge /statsz exports.
func recoverySummary(rep *RecoveryReport) string {
	if rep.Empty() {
		return "clean"
	}
	out := fmt.Sprintf("swept %d, quarantined %d", len(rep.SweptTemp), len(rep.Quarantined))
	if len(rep.Renamed) > 0 {
		out += fmt.Sprintf(", renamed %d", len(rep.Renamed))
	}
	if !rep.WAL.Empty() {
		out += fmt.Sprintf(", wal replayed %d", rep.WAL.Replayed)
	}
	return out
}

// OpenStoreAuto opens the store at dir in whichever layout is present:
// sharded when <dir>/shards exists, single otherwise. shards > 0 forces
// the sharded layout (creating it when o.Create is set; matching the
// manifest otherwise), so `pcd -shards N -create` and every read-only
// tool can share one open path.
func OpenStoreAuto(dir string, shards int, o DurableOptions) (Storage, error) {
	if shards > 0 {
		return OpenSharded(dir, shards, o)
	}
	if IsShardedLayout(dir) {
		return OpenSharded(dir, 0, o)
	}
	return OpenStoreDurable(dir, o)
}

// IsShardedLayout reports whether dir holds a sharded store layout.
func IsShardedLayout(dir string) bool {
	fi, err := os.Stat(filepath.Join(dir, ShardsDirName))
	return err == nil && fi.IsDir()
}

// route returns the shard owning (app, version).
func (s *ShardedStore) route(app, version string) *shardState {
	return s.shards[ShardForKey(app, version, s.n)]
}

// observe feeds the shard breaker from one operation's outcome. Only
// backend-grade failures count — validation errors and definitive
// misses say nothing about the shard's health.
func (s *ShardedStore) observe(sh *shardState, err error) {
	if err == nil {
		sh.brk.ResetStreak()
		return
	}
	if IsTransient(err) {
		sh.noteErr(s.threshold, err)
	}
}

// fallback returns the replica handle able to serve a down shard: the
// promoted follower when the keyspace was handed over, else a caught-up
// reader for reads, else — when write failover is allowed — the follower
// a one-way promotion elects. ok is false when no replica can serve and
// the operation must fail as before.
func (s *ShardedStore) fallback(sh *shardState, write bool) (ShardReplica, bool) {
	if r, ok := sh.replica(); ok {
		return r, true
	}
	if s.failover == nil {
		return nil, false
	}
	if !write {
		r, ok := s.failover.Reader(sh.idx)
		if ok {
			sh.mu.Lock()
			sh.servedByReplica = true
			sh.mu.Unlock()
		}
		return r, ok
	}
	if !s.promote {
		return nil, false
	}
	r, err := s.promoteShard(sh)
	return r, err == nil
}

// routed runs one point operation on whoever serves sh's keyspace: the
// live local store (its outcome feeds the shard breaker), else the
// replica the failover seam supplies — for a write, the follower a
// one-way promotion hands the keyspace to — else nobody, and the
// operation fails fast as a transient backend error (the service layer
// answers 503 + Retry-After).
func (s *ShardedStore) routed(sh *shardState, op string, write bool, local func(*Store) error, remote func(ShardReplica) error) error {
	st, ok := sh.live()
	if !ok {
		if r, ok := s.fallback(sh, write); ok {
			return remote(r)
		}
		return sh.downErr(op)
	}
	err := local(st)
	s.observe(sh, err)
	return err
}

// write commits one shard's prepared mutations on whoever owns its
// keyspace: the local shard store, or the promoted follower, which is
// handed the same journal entries. Either way they were built once.
func (s *ShardedStore) write(sh *shardState, op string, ms []mutation) (n int, err error) {
	err = s.routed(sh, op, true,
		func(st *Store) (err error) { n, err = st.commit(ms, commitWrite); return err },
		func(r ShardReplica) (err error) {
			entries := make([]WALEntry, len(ms))
			for i, m := range ms {
				entries[i] = m.WALEntry
			}
			n, err = r.Apply(entries)
			return err
		})
	return n, err
}

// Save routes the record to its shard, validated and encoded once here.
func (s *ShardedStore) Save(rec *RunRecord) error {
	_, err := s.PutEncoded(detach(rec))
	return err
}

// PutBatch validates and encodes every record, then groups the batch by
// owning shard and commits each group on its shard — one routing
// decision and one breaker check per group instead of per record.
// Groups are written in ascending shard order (input order within a
// group); the first failing group stops the batch, reporting how many
// records landed.
func (s *ShardedStore) PutBatch(recs []*RunRecord) (int, error) { return s.PutEncoded(detach(recs...)) }

// PutEncoded is PutBatch for records decoded from put bodies, written
// under the bytes they arrived in when those are canonical (Store's
// PutEncoded).
func (s *ShardedStore) PutEncoded(recs []Encoded) (int, error) {
	ms, err := putMutations(recs)
	if err != nil {
		return 0, err
	}
	groups := make([][]mutation, s.n)
	for _, m := range ms {
		idx := ShardForKey(m.App, m.Version, s.n)
		groups[idx] = append(groups[idx], m)
	}
	saved := 0
	for idx, g := range groups {
		if len(g) == 0 {
			continue
		}
		n, err := s.write(s.shards[idx], "put", g)
		saved += n
		if err != nil {
			return saved, err
		}
	}
	return saved, nil
}

// Load routes the read to the shard owning (app, version), failing over
// to a caught-up follower when the shard is down.
func (s *ShardedStore) Load(app, version, runID string) (rec *RunRecord, err error) {
	err = s.routed(s.route(app, version), "get", false,
		func(st *Store) (err error) { rec, err = st.Load(app, version, runID); return err },
		func(r ShardReplica) (err error) { rec, err = r.Load(app, version, runID); return err })
	return rec, err
}

// LoadStored routes the read as Load does. A shard a follower serves
// answers with the record only, for the caller to encode.
func (s *ShardedStore) LoadStored(app, version, runID string) (rec *RunRecord, data []byte, err error) {
	err = s.routed(s.route(app, version), "get", false,
		func(st *Store) (err error) { rec, data, err = st.LoadStored(app, version, runID); return err },
		func(r ShardReplica) (err error) { rec, err = r.Load(app, version, runID); return err })
	return rec, data, err
}

// Delete routes the delete to the shard owning (app, version). Like
// Save, a down shard's delete goes to the promoted follower when write
// failover is enabled.
func (s *ShardedStore) Delete(app, version, runID string) error {
	m := deleteMutation(RecordKey{App: app, Version: version, RunID: runID})
	_, err := s.write(s.route(app, version), "delete", []mutation{m})
	return err
}

// shardResult carries one shard's scatter contribution back by index,
// so merges are deterministic regardless of completion order.
type shardResult[T any] struct {
	idx int
	val T
	err error
}

// shardSource is the scan surface scatter reads from: a live local
// store, or the replica standing in for a down shard. Both *Store and
// ShardReplica satisfy it.
type shardSource interface {
	Keys() []RecordKey
	Len() int
	LoadAll(app, version string) ([]*RunRecord, error)
}

// scatter runs f over every serving shard concurrently under the
// per-shard timeout. A live shard serves from its local store; a down
// shard serves from a follower when the replica seam can supply one, so
// its keyspace contributes to merged reads instead of turning absent.
// A shard that errors or misses the deadline contributes nothing to this
// call and — local sources only — feeds the shard breaker. Results are
// gathered in shard order.
func scatter[T any](s *ShardedStore, op string, f func(src shardSource) (T, error)) []T {
	ch := make(chan shardResult[T], s.n)
	launched := make([]bool, s.n)
	viaReplica := make([]bool, s.n)
	pending := 0
	for i, sh := range s.shards {
		var src shardSource
		if st, ok := sh.live(); ok {
			src = st
		} else if r, ok := s.fallback(sh, false); ok {
			src = r
			viaReplica[i] = true
		} else {
			continue
		}
		launched[i] = true
		pending++
		go func(i int, src shardSource) {
			v, err := f(src)
			ch <- shardResult[T]{idx: i, val: v, err: err}
		}(i, src)
	}
	timer := time.NewTimer(s.timeout)
	defer timer.Stop()
	got := make([]*shardResult[T], s.n)
	received := 0
	for received < pending {
		select {
		case r := <-ch:
			got[r.idx] = &r
			received++
		case <-timer.C:
			// Late shards are absent for this call; the buffered channel
			// lets their goroutines finish without leaking.
			received = pending
		}
	}
	out := make([]T, 0, s.n)
	for i, sh := range s.shards {
		r := got[i]
		if r == nil {
			if launched[i] && !viaReplica[i] {
				sh.noteErr(s.threshold, fmt.Errorf("history: shard %s: %s timed out after %s", shardDirName(i), op, s.timeout))
			}
			continue
		}
		if r.err != nil {
			if !viaReplica[i] {
				s.observe(sh, r.err)
			}
			continue
		}
		if !viaReplica[i] {
			sh.brk.ResetStreak()
		}
		out = append(out, r.val)
	}
	return out
}

// Keys merges every serving shard's keys into canonical (app, version,
// run id) order.
func (s *ShardedStore) Keys() []RecordKey {
	parts := scatter(s, "keys", func(src shardSource) ([]RecordKey, error) { return src.Keys(), nil })
	var keys []RecordKey
	for _, p := range parts {
		keys = append(keys, p...)
	}
	sortKeys(keys)
	return keys
}

// Len sums the live shards' record counts.
func (s *ShardedStore) Len() int {
	parts := scatter(s, "len", func(src shardSource) (int, error) { return src.Len(), nil })
	n := 0
	for _, c := range parts {
		n += c
	}
	return n
}

// List merges the live shards' display names, sorted — byte-identical
// to a single store holding the same records.
func (s *ShardedStore) List() ([]string, error) { return displayNames(s.Keys()), nil }

// LoadAll scatter-gathers the matching records and merges them in
// canonical key order. Records stay interned per shard: treat them as
// read-only.
func (s *ShardedStore) LoadAll(app, version string) ([]*RunRecord, error) {
	parts := scatter(s, "scan", func(src shardSource) ([]*RunRecord, error) { return src.LoadAll(app, version) })
	var recs []*RunRecord
	for _, p := range parts {
		recs = append(recs, p...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key().less(recs[j].Key()) })
	return recs, nil
}

// Query scatter-gathers the app's records and applies the same filter
// and ordering as a single store, so results are byte-identical. When
// version is non-empty the whole keyspace lives on one shard; a blank
// version fans out to all of them.
func (s *ShardedStore) Query(app, version string, f ResultFilter) ([]QueryHit, error) {
	if app == "" {
		return nil, fmt.Errorf("history: query needs an application name")
	}
	recs, err := s.LoadAll(app, version)
	if err != nil {
		return nil, err
	}
	return collectQueryHits(recs, f), nil
}

// PersistentBottlenecks counts (hypothesis : focus) pairs across the
// merged record set before applying the minRuns cut — a blank version
// spans shards, so per-shard counts must be summed first.
func (s *ShardedStore) PersistentBottlenecks(app, version string, minRuns int) (map[string]int, error) {
	recs, err := s.LoadAll(app, version)
	if err != nil {
		return nil, err
	}
	return countPersistent(recs, minRuns), nil
}

// ScanIssues concatenates the live shards' scan issues, names prefixed
// with the shard directory.
func (s *ShardedStore) ScanIssues() []ScanIssue {
	var out []ScanIssue
	for _, sh := range s.shards {
		st, ok := sh.live()
		if !ok {
			continue
		}
		prefix := path.Join(ShardsDirName, shardDirName(sh.idx)) + "/"
		for _, is := range st.ScanIssues() {
			out = append(out, ScanIssue{Name: prefix + is.Name, Err: is.Err})
		}
	}
	return out
}

// Recovery returns the aggregated recovery report of the open, with
// per-shard detail in its Shards field.
func (s *ShardedStore) Recovery() *RecoveryReport { return s.recovery }

// WALStats sums the live shards' journal counters.
func (s *ShardedStore) WALStats() WALStats {
	var total WALStats
	for _, sh := range s.shards {
		st, ok := sh.live()
		if !ok {
			continue
		}
		w := st.WALStats()
		total.Appends += w.Appends
		total.Syncs += w.Syncs
		total.Rotations += w.Rotations
		total.Segments += w.Segments
	}
	return total
}

// Ping probes every shard and revives the ones that answer: a
// breaker-tripped shard whose store responds is re-admitted, and a
// shard that failed to open is reopened in place (replaying its WAL).
// Ping returns nil while at least one shard serves — a single dead
// shard degrades its keyspace, it does not take the daemon down — and
// the first failure when the whole store is dark.
func (s *ShardedStore) Ping() error {
	live := 0
	var firstErr error
	for _, sh := range s.shards {
		if err := s.pingShard(sh); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		live++
	}
	if live == 0 {
		return firstErr
	}
	return nil
}

// pingShard probes one shard, reviving it on success. A promoted shard
// is never revived: its keyspace lives on the follower now, and letting
// the local store answer again would fork it (split brain). The shard
// counts as serving — through the replica — for Ping's liveness tally.
func (s *ShardedStore) pingShard(sh *shardState) error {
	sh.mu.Lock()
	if sh.promoted != nil {
		sh.mu.Unlock()
		return nil
	}
	st := sh.st
	sh.mu.Unlock()
	if st == nil {
		st, err := OpenStoreDurable(sh.dir, s.shardOptions(sh.idx, false))
		if err != nil {
			sh.mu.Lock()
			sh.lastErr = err.Error()
			sh.lastRecovery = "open failed: " + err.Error()
			sh.mu.Unlock()
			return err
		}
		st.ObserveStages(s.stages.Load())
		sh.mu.Lock()
		sh.st = st
		sh.lastErr = ""
		sh.lastRecovery = recoverySummary(st.Recovery())
		sh.mu.Unlock()
		sh.brk.Success()
		return nil
	}
	if err := st.Ping(); err != nil {
		sh.mu.Lock()
		sh.lastErr = err.Error()
		sh.mu.Unlock()
		return err
	}
	sh.brk.Success()
	return nil
}

// Close closes every shard that opened, returning the first error.
func (s *ShardedStore) Close() error {
	var firstErr error
	for _, sh := range s.shards {
		if st := sh.store(); st != nil {
			if err := st.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// ShardStats snapshots every shard's health gauges in shard order.
func (s *ShardedStore) ShardStats() []ShardInfo {
	out := make([]ShardInfo, 0, s.n)
	for _, sh := range s.shards {
		sh.mu.Lock()
		down := sh.st == nil || sh.brk.Open()
		info := ShardInfo{Shard: sh.idx, Degraded: down, LastRecovery: sh.lastRecovery}
		switch {
		case sh.promoted != nil:
			info.Failover = "promoted"
		case sh.servedByReplica && down:
			info.Failover = "reads"
		}
		st := sh.st
		sh.mu.Unlock()
		if st != nil {
			info.Records = st.Len()
		}
		out = append(out, info)
	}
	return out
}

// SyncWAL flushes every open shard journal to stable storage — the
// graceful-shutdown barrier, independent of each journal's sync policy.
func (s *ShardedStore) SyncWAL() error {
	var firstErr error
	for _, sh := range s.shards {
		if st := sh.store(); st != nil {
			if err := st.SyncWAL(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}
