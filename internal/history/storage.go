package history

// Storage is the read/write/query surface everything above the store
// depends on: the harness environment, the pcd service layer, the load
// harness and the CLI tools all speak this interface, so a single
// durable Store and a consistent-hash ShardedStore are interchangeable
// behind it. The semantics are those documented on Store's methods; in
// particular, records handed out by Load, LoadAll and Query are interned
// and must be treated as read-only, and both implementations return
// results in the same canonical order (byte-identical output is part of
// the contract, not an accident).
type Storage interface {
	// Save writes (or overwrites) a record.
	Save(rec *RunRecord) error
	// PutBatch writes records in order, stopping at the first failure;
	// it returns how many were saved. Sharded storage groups the batch
	// by owning shard so each shard is visited once.
	PutBatch(recs []*RunRecord) (int, error)
	// Load reads one record by app, version and run id.
	Load(app, version, runID string) (*RunRecord, error)
	// LoadStored is Load plus the bytes the record is stored under — its
	// canonical encoding, read back from its file — when they check out
	// against the length and CRC-32C the index keeps beside the record.
	// Otherwise data is nil and the caller encodes the record, which
	// yields the same bytes: a read that cannot vouch for the file is
	// never an error. A GET sends these bytes, not a fresh encoding.
	LoadStored(app, version, runID string) (rec *RunRecord, data []byte, err error)
	// Delete removes one record.
	Delete(app, version, runID string) error
	// Keys returns every indexed record key in (app, version, run id)
	// order.
	Keys() []RecordKey
	// Len returns the number of indexed records.
	Len() int
	// List returns the stored records' display names, sorted.
	List() ([]string, error)
	// LoadAll returns every record whose app (and version, when
	// non-empty) matches, in canonical key order.
	LoadAll(app, version string) ([]*RunRecord, error)
	// Query applies the filter across the app's stored runs, ordered by
	// descending value then run identity.
	Query(app, version string, f ResultFilter) ([]QueryHit, error)
	// PersistentBottlenecks counts (hypothesis : focus) pairs true in at
	// least minRuns stored runs.
	PersistentBottlenecks(app, version string, minRuns int) (map[string]int, error)
	// ScanIssues returns the entries the last scan skipped as unreadable.
	ScanIssues() []ScanIssue
	// Recovery reports what opening the store repaired (nil when the
	// store was not opened through a recovering path).
	Recovery() *RecoveryReport
	// Ping probes the storage engine; nil means healthy. Implementations
	// may use it to re-admit storage that had been marked down.
	Ping() error
	// WALStats totals the write-ahead journal's counters (the zero value
	// when journaling is off).
	WALStats() WALStats
	// SyncWAL flushes the journal(s) to stable storage regardless of the
	// configured sync policy — the graceful-shutdown barrier.
	SyncWAL() error
	// Dir returns the store's root directory, or "" for in-memory
	// storage.
	Dir() string
	// Close flushes and closes the journal(s); reads keep working.
	Close() error
}

// Both store layouts satisfy the interface.
var (
	_ Storage = (*Store)(nil)
	_ Storage = (*ShardedStore)(nil)
)

// WALStats returns the journal's counters, or the zero value when the
// store was not opened durable.
func (s *Store) WALStats() WALStats {
	if s.wal == nil {
		return WALStats{}
	}
	return s.wal.Stats()
}
