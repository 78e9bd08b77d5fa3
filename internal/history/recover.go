package history

import "fmt"

// QuarantinedEntry names one corrupt record OpenStore set aside, with
// the decode or read error that condemned it.
type QuarantinedEntry struct {
	// Name is the file basename, now under quarantine/.
	Name string
	// Reason is what was wrong with it.
	Reason string
}

func (q QuarantinedEntry) String() string { return fmt.Sprintf("%s: %s", q.Name, q.Reason) }

// RenamedEntry names one valid record OpenStore found under a file name
// other than its key's, and the canonical name it was moved to.
type RenamedEntry struct {
	From string
	To   string
}

// WALRecovery describes what the write-ahead-journal replay at open did:
// how much journal there was, how many folded entries had to be applied
// to the record files (zero when the crash lost nothing), whether the
// last segment ended mid-frame (normal residue of dying mid-append), and
// any frames that were corrupt elsewhere than the tail (never normal).
type WALRecovery struct {
	Segments int
	Entries  int
	Replayed int
	TornTail bool
	Corrupt  []string
}

// Empty reports whether the replay found nothing worth mentioning.
func (w *WALRecovery) Empty() bool {
	return w == nil || (w.Replayed == 0 && !w.TornTail && len(w.Corrupt) == 0)
}

// RecoveryReport describes what crash recovery did when a store was
// opened: orphaned atomic-write temp files swept, records stored under
// a non-canonical file name renamed (a store written under the
// pre-escaping naming scheme migrates here), the write-ahead journal
// replayed (durable stores only; see WALRecovery), and corrupt records
// or shadowed duplicates quarantined (moved into quarantine/ with a
// REPORT.txt line each, not deleted — a human can inspect and restore
// them).
type RecoveryReport struct {
	SweptTemp   []string
	Renamed     []RenamedEntry
	Quarantined []QuarantinedEntry
	WAL         *WALRecovery
	// Shards carries per-shard detail for sharded stores (nil for a
	// single store); the aggregate fields above fold every shard
	// together with shards/NN/-prefixed names.
	Shards []*ShardRecovery
}

// Empty reports whether recovery found nothing to do.
func (r *RecoveryReport) Empty() bool {
	if r == nil {
		return true
	}
	for _, sr := range r.Shards {
		if sr.Err != "" {
			return false
		}
	}
	return len(r.SweptTemp) == 0 && len(r.Renamed) == 0 && len(r.Quarantined) == 0 && r.WAL.Empty()
}

// Recovery returns the crash-recovery report of the OpenStore call that
// produced this store, or nil when the store was not opened through the
// recovering path (NewStore, NewMemStore, NewStoreWith).
func (s *Store) Recovery() *RecoveryReport {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.recovery
}

// adoptNames enforces one file name per key over an opening scan: a
// valid record found under any name but fileName(key) is renamed to it,
// or — when the key already has its file — quarantined as a shadowed
// duplicate. It returns the records to index. A file that can be
// neither renamed nor set aside (a read-only store, say) is still
// indexed from where it sits, as the scan found it.
func adoptNames(b *FSBackend, found []scannedRecord, rep *RecoveryReport) []scannedRecord {
	kept := found[:0]
	for _, f := range found {
		key := f.rec.Key()
		if f.name == fileName(key) {
			kept = append(kept, f)
			continue
		}
		renamed, err := b.adopt(f.name, key)
		switch {
		case renamed:
			rep.Renamed = append(rep.Renamed, RenamedEntry{From: f.name, To: fileName(key)})
			kept = append(kept, f)
		case err == nil:
			rep.Quarantined = append(rep.Quarantined, QuarantinedEntry{
				Name:   f.name,
				Reason: "shadowed duplicate of " + fileName(key),
			})
		default:
			kept = append(kept, f)
		}
	}
	return kept
}

// quarantinePass quarantines every entry the opening scan could not
// decode, folding the moves into rep; healed names files the journal
// replay has since rewritten or removed, which are fine now. It runs
// after the temp sweep and the replay, so only damage durability could
// not undo ends up quarantined. Entries that cannot be quarantined (a
// read-only store, say) stay behind as plain scan issues — recovery
// degrades to skip-and-report rather than failing the open.
func (s *Store) quarantinePass(b *FSBackend, rep *RecoveryReport, healed map[string]bool) {
	var left []ScanIssue
	for _, issue := range s.issues {
		if healed[issue.Name] {
			continue
		}
		if b.Quarantine(issue.Name, issue.Err.Error()) != nil {
			left = append(left, issue)
			continue
		}
		rep.Quarantined = append(rep.Quarantined, QuarantinedEntry{
			Name:   issue.Name,
			Reason: issue.Err.Error(),
		})
	}
	s.issues = left
}
