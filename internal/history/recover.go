package history

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
)

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

// Recovery returns the crash-recovery report of the open that produced
// this store (NewStore, OpenStore, OpenStoreDurable), or nil when the
// store was built over a backend instead (NewMemStore, NewStoreWith).
func (s *Store) Recovery() *RecoveryReport {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.recovery
}

// recoveryPlan is crash recovery of one store directory, decided before
// anything is touched. planRecovery only reads; OpenStoreDurable carries
// the plan out (Store.carryOut), FsckStore grades it and FsckReplica folds
// its outcome. One decision, three consumers: what pcfsck calls residue
// is exactly what the next open repairs, and what it calls corrupt is a
// file the open quarantines as damaged or a bad frame ahead of the
// journal's tail.
type recoveryPlan struct {
	// temps are the orphaned temp files of every writer, store-relative.
	temps []string
	// adopt is each valid record found under a name other than its key's,
	// in scan order.
	adopt []adoption
	// index is the records the open indexes before the replay: every
	// valid record, under its key's name once the adoptions are done.
	index []scannedRecord
	// wal is what reading the journal found, nil when the store is opened
	// without one; invalid names its folded entries that fail validation.
	wal     *WALScanReport
	invalid []string
	// redo is the replay: each folded mutation the record files do not
	// reflect yet, in key order.
	redo []replay
	// quarantine is each file the scan could not read or decode that no
	// replayed mutation rewrites or removes.
	quarantine []ScanIssue
	// stateEpoch is a promoted shard's replica/STATE.json epoch and
	// journalEpoch the journal's, both set only when they disagree.
	stateEpoch, journalEpoch uint64
}

// adoption is a valid record under a non-canonical name: renamed to its
// key's name, or — when that name is taken — quarantined as a shadowed
// duplicate.
type adoption struct {
	from string
	key  RecordKey
	dup  bool
}

// replay is one mutation of the replay and what is wrong with its file.
type replay struct {
	mutation
	problem string
}

// planRecovery reads the store directory at dir — temp files, records
// and, with wal, the journal — and decides its recovery. It writes
// nothing.
func planRecovery(dir string, wal bool) (*recoveryPlan, error) {
	p := &recoveryPlan{temps: leftTemp(dir, tempFiles)}
	var fold []mutation
	if wal {
		wdir := filepath.Join(dir, WALDirName)
		entries, scan, err := ReadWAL(wdir)
		if err != nil {
			return nil, err
		}
		p.wal = scan
		fold, p.invalid = foldMutations(entries)
		// A bad epoch file is the journal restart's to refuse.
		if _, _, state, ok := promotedState(dir); ok {
			if epoch, err := readWALEpoch(wdir); err == nil && epoch != 0 && epoch != state {
				p.stateEpoch, p.journalEpoch = state, epoch
			}
		}
	}
	entries, broken, err := fsBackendAt(dir).Scan()
	if err != nil {
		return nil, &BackendError{Op: "scan", Err: err}
	}
	// files is the record directory as the adoptions leave it, by name:
	// a valid record, or one with no rec for a broken file.
	files := make(map[string]scannedRecord, len(entries)+len(broken))
	for _, is := range broken {
		files[is.Name] = scannedRecord{name: is.Name}
	}
	var misnamed []scannedRecord
	for _, e := range entries {
		rec, canonical, err := decodeStored(e.Data)
		f := scannedRecord{name: e.Name, rec: rec, data: e.Data, canonical: canonical}
		switch {
		case err != nil:
			broken = append(broken, ScanIssue{Name: e.Name, Err: err})
		case e.Name != fileName(rec.Key()):
			misnamed = append(misnamed, f)
		}
		files[e.Name] = f
	}
	for _, f := range misnamed {
		key := f.rec.Key()
		_, taken := files[fileName(key)]
		p.adopt = append(p.adopt, adoption{from: f.name, key: key, dup: taken})
		if !taken {
			files[fileName(key)] = f
		}
		delete(files, f.name)
	}
	for _, f := range files {
		if f.rec != nil {
			p.index = append(p.index, f)
		}
	}
	healed := make(map[string]bool)
	for _, m := range fold {
		f, present := files[fileName(m.Key())]
		var problem string
		switch {
		case m.Op == walOpPut && !present:
			problem = "journaled write missing from disk"
		case m.Op == walOpPut && !bytes.Equal(f.data, m.Data):
			problem = "record bytes differ from the journaled write"
		case m.Op == walOpDelete && present:
			problem = "journaled delete still present on disk"
		default:
			continue
		}
		p.redo = append(p.redo, replay{m, problem})
		healed[fileName(m.Key())] = true
	}
	for _, is := range broken {
		if !healed[is.Name] {
			p.quarantine = append(p.quarantine, is)
		}
	}
	return p, nil
}

// outcome is the records the store holds once the plan is carried out:
// the indexed files with the replay on top.
func (p *recoveryPlan) outcome() map[RecordKey][]byte {
	out := make(map[RecordKey][]byte, len(p.index))
	for _, f := range p.index {
		out[f.rec.Key()] = f.data
	}
	for _, r := range p.redo {
		if r.Op == walOpPut {
			out[r.Key()] = r.Data
		} else {
			delete(out, r.Key())
		}
	}
	return out
}

// carryOut carries out p on a store just built over fb, in the order the
// plan assumes: the sweep, the adoptions, the replay through commit, the
// journal restart (a promoted shard's state epoch following it), and
// last the quarantine — so a record the journal can roll forward is
// rewritten, not quarantined. A file that can be neither renamed nor set
// aside (a read-only store, say) is left where it is: a misnamed record
// is still indexed, a broken one stays a scan issue.
func (s *Store) carryOut(fb *FSBackend, p *recoveryPlan, wo WALOptions) error {
	rep := &RecoveryReport{}
	for _, rel := range p.temps {
		if err := fb.fs.Remove(filepath.Join(fb.dir, rel)); err != nil {
			return fmt.Errorf("history: recover store: sweep: %w", err)
		}
		rep.SweptTemp = append(rep.SweptTemp, filepath.ToSlash(rel))
	}
	for _, a := range p.adopt {
		want := fileName(a.key)
		switch {
		case a.dup:
			reason := fmt.Sprintf("shadowed duplicate of %s (same record key %s)", want, a.key)
			if fb.Quarantine(a.from, reason) == nil {
				rep.Quarantined = append(rep.Quarantined, QuarantinedEntry{Name: a.from, Reason: "shadowed duplicate of " + want})
			}
		case moveFile(fb.fs, filepath.Join(fb.dir, a.from), filepath.Join(fb.dir, want)) == nil:
			rep.Renamed = append(rep.Renamed, RenamedEntry{From: a.from, To: want})
		}
	}
	s.setIndex(p.index, nil)
	if p.wal != nil {
		ms := make([]mutation, len(p.redo))
		for i, r := range p.redo {
			ms[i] = r.mutation
		}
		applied, err := s.commit(ms, commitRedo)
		rep.WAL = &WALRecovery{
			Segments: p.wal.Segments,
			Entries:  p.wal.Entries,
			Replayed: applied,
			TornTail: p.wal.TornTail,
			Corrupt:  append(p.wal.Corrupt, p.invalid...),
		}
		if err != nil {
			return fmt.Errorf("history: recover store: wal replay: %w", err)
		}
		// Every journaled write is folded into the record files now;
		// truncate the journal rather than replaying it forever.
		if s.wal, err = startWAL(fb.fs, filepath.Join(fb.dir, WALDirName), wo); err != nil {
			return err
		}
		// startWAL bumped the journal generation; a promoted shard's
		// replication state tracks that generation (it is what fencing
		// advertises), so re-sync it. Keeps the pcfsck invariant — a
		// promoted replica/STATE.json epoch equals wal/EPOCH at rest —
		// true across restarts, not just right after promotion.
		if err := syncPromotedStateEpoch(fb.fs, fb.dir, s.wal.Epoch()); err != nil {
			return fmt.Errorf("history: recover store: %w", err)
		}
	}
	for _, is := range p.quarantine {
		if fb.Quarantine(is.Name, is.Err.Error()) != nil {
			s.issues = append(s.issues, is)
			continue
		}
		rep.Quarantined = append(rep.Quarantined, QuarantinedEntry{Name: is.Name, Reason: is.Err.Error()})
	}
	s.recovery = rep
	return nil
}

// hasJournal reports whether the store directory at dir has a wal/.
func hasJournal(dir string) bool {
	fi, err := os.Stat(filepath.Join(dir, WALDirName))
	return err == nil && fi.IsDir()
}
