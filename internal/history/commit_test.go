package history

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCommitMatrix drives the store's one write path through every kind
// of mutation × every point it can fail at, and holds each outcome to
// the same invariant: the index, the record files and the fold of the
// journal name one state — the acknowledged one: the operation's effect
// when it succeeded, the pre-image when it did not — and a reopen (the
// crash-recovery path) reproduces it from disk alone.
func TestCommitMatrix(t *testing.T) {
	type state map[RecordKey]string // key → stored bytes

	encode := func(rec *RunRecord) string {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	changed := func(run string) *RunRecord {
		rec := sampleRecord(run)
		rec.Duration = 999
		return rec
	}
	entryOf := func(rec *RunRecord) WALEntry {
		return WALEntry{Op: WALOpPut, App: rec.App, Version: rec.Version, RunID: rec.RunID, Data: []byte(encode(rec))}
	}
	put := func(s state, recs ...*RunRecord) {
		for _, rec := range recs {
			s[rec.Key()] = encode(rec)
		}
	}
	r1 := sampleRecord("r1").Key()

	// Every case starts from a store holding r1 and r2. do runs the
	// operation; effect is what it does to the acknowledged state when it
	// succeeds. wantMiss marks the one operation whose success is an
	// os.ErrNotExist answer.
	kinds := []struct {
		name     string
		do       func(st *Store) error
		effect   func(s state)
		wantMiss bool
		deletes  bool
	}{
		{
			name:   "put",
			do:     func(st *Store) error { return st.Save(sampleRecord("r9")) },
			effect: func(s state) { put(s, sampleRecord("r9")) },
		},
		{
			name:   "overwrite",
			do:     func(st *Store) error { return st.Save(changed("r1")) },
			effect: func(s state) { put(s, changed("r1")) },
		},
		{
			name:    "delete",
			do:      func(st *Store) error { return st.Delete("poisson", "A", "r1") },
			effect:  func(s state) { delete(s, r1) },
			deletes: true,
		},
		{
			name:     "delete-of-absent",
			do:       func(st *Store) error { return st.Delete("poisson", "A", "r7") },
			effect:   func(s state) {},
			wantMiss: true,
			deletes:  true,
		},
		{
			name:   "replicated put",
			do:     func(st *Store) error { return st.ApplyReplicated(entryOf(changed("r1"))) },
			effect: func(s state) { put(s, changed("r1")) },
		},
		{
			name: "replicated delete",
			do: func(st *Store) error {
				return st.ApplyReplicated(WALEntry{Op: WALOpDelete, App: "poisson", Version: "A", RunID: "r1"})
			},
			effect:  func(s state) { delete(s, r1) },
			deletes: true,
		},
		{
			name: "batch of 3",
			do: func(st *Store) error {
				_, err := st.PutBatch([]*RunRecord{sampleRecord("r8"), changed("r1"), sampleRecord("r9")})
				return err
			},
			effect: func(s state) { put(s, sampleRecord("r8"), changed("r1"), sampleRecord("r9")) },
		},
	}

	// arm injects the failure and returns how to clear it. filesLag marks
	// the one failure that may leave a record file behind the journal
	// until the next open (the heal could not reach the backend either);
	// sparesMiss the one a delete of an absent record never reaches.
	failures := []struct {
		name       string
		arm        func(st *Store, fb *FSBackend, fault *FaultBackend, deletes bool) (disarm func())
		fails      bool
		filesLag   bool
		sparesMiss bool
	}{
		{
			name: "none",
			arm:  func(*Store, *FSBackend, *FaultBackend, bool) func() { return func() {} },
		},
		{
			name: "journal append fails",
			arm: func(st *Store, _ *FSBackend, _ *FaultBackend, _ bool) func() {
				st.wal.writeHook = func(f *os.File, frame []byte) (int, error) {
					n, _ := f.Write(frame[:len(frame)/2]) // torn, then refused
					return n, errors.New("injected append failure")
				}
				return func() { st.wal.writeHook = nil }
			},
			fails: true,
		},
		{
			// The backend fails once: a put's rename is refused; a delete's
			// directory sync fails after the file is already gone, so the
			// compensation has a record to put back.
			name: "backend mutation fails",
			arm: func(_ *Store, fb *FSBackend, _ *FaultBackend, _ bool) func() {
				failed := false
				once := func() error {
					if failed {
						return nil
					}
					failed = true
					return errors.New("injected backend failure")
				}
				fb.renameHook = func(oldpath, newpath string) error {
					if err := once(); err != nil {
						return err
					}
					return os.Rename(oldpath, newpath)
				}
				fb.syncHook = func(dir string) error {
					if err := once(); err != nil {
						return err
					}
					return syncDir(dir)
				}
				return func() { fb.renameHook, fb.syncHook = nil, nil }
			},
			fails:      true,
			sparesMiss: true, // the remove misses before any hook runs
		},
		{
			// The backend keeps failing, so the compensating entry is
			// journaled but cannot be healed into the files: puts tear the
			// record file, deletes are refused outright.
			name: "heal after compensation fails",
			arm: func(_ *Store, _ *FSBackend, fault *FaultBackend, deletes bool) func() {
				cfg := FaultConfig{TornWriteRate: 1}
				if deletes {
					cfg = FaultConfig{ErrRate: 1}
				}
				fault.SetConfig(cfg)
				return func() { fault.SetConfig(FaultConfig{}) }
			},
			fails:    true,
			filesLag: true,
		},
	}

	indexState := func(st *Store) state {
		s := state{}
		for _, k := range st.Keys() {
			rec, err := st.Load(k.App, k.Version, k.RunID)
			if err != nil {
				t.Fatalf("load indexed %s: %v", k, err)
			}
			s[k] = encode(rec)
		}
		return s
	}
	fileState := func(dir string) state {
		s := state{}
		entries, issues, err := (&FSBackend{dir: dir}).Scan()
		if err != nil || len(issues) != 0 {
			t.Fatalf("scan record files: %v, issues %v", err, issues)
		}
		for _, e := range entries {
			rec, err := decodeRecord(e.Data)
			if err != nil {
				s[RecordKey{App: "undecodable", RunID: e.Name}] = string(e.Data)
				continue
			}
			s[rec.Key()] = string(e.Data)
		}
		return s
	}
	foldState := func(dir string) state {
		entries, scan, err := ReadWAL(walDirOf(dir))
		if err != nil || scan.TornTail || len(scan.Corrupt) != 0 {
			t.Fatalf("journal unreadable or torn after the case: %v %+v", err, scan)
		}
		s := state{}
		for k, e := range WALFold(entries) {
			if e.Op == WALOpPut {
				s[k] = string(e.Data)
			}
		}
		return s
	}

	for _, kind := range kinds {
		for _, failure := range failures {
			kind, failure := kind, failure
			t.Run(kind.name+"/"+failure.name, func(t *testing.T) {
				dir := t.TempDir()
				var fault *FaultBackend
				st := openDurable(t, dir, DurableOptions{Wrap: func(b Backend) Backend {
					fault = NewFaultBackend(b, FaultConfig{})
					return fault
				}})
				fb := fault.Inner().(*FSBackend)
				want := state{}
				for _, rec := range []*RunRecord{sampleRecord("r1"), sampleRecord("r2")} {
					if err := st.Save(rec); err != nil {
						t.Fatal(err)
					}
					put(want, rec)
				}

				disarm := failure.arm(st, fb, fault, kind.deletes)
				err := kind.do(st)
				disarm()

				failed := failure.fails && !(kind.wantMiss && failure.sparesMiss)
				switch {
				case failed:
					if err == nil || !IsBackendError(err) || errors.Is(err, os.ErrNotExist) {
						t.Fatalf("err = %v, want a backend failure", err)
					}
				case kind.wantMiss:
					if !errors.Is(err, os.ErrNotExist) {
						t.Fatalf("err = %v, want not-exist", err)
					}
				case err != nil:
					t.Fatal(err)
				}
				if !failed {
					kind.effect(want)
				}

				if got := indexState(st); !reflect.DeepEqual(got, want) {
					t.Errorf("index holds %v, want %v", keysOf(got), keysOf(want))
				}
				if got := foldState(dir); !reflect.DeepEqual(got, want) {
					t.Errorf("journal folds to %v, want %v", keysOf(got), keysOf(want))
				}
				if got := fileState(dir); !reflect.DeepEqual(got, want) {
					// Only a compensation that could not be healed may leave the
					// files behind, and then the journal must stop compacting.
					if !failed || !failure.filesLag {
						t.Errorf("record files hold %v, want %v", keysOf(got), keysOf(want))
					} else if !st.wal.unsafeCompact {
						t.Error("record files lag the journal, yet the journal still compacts")
					}
				}

				// The crash-recovery path: no Close, reopen from disk alone.
				st2, err := OpenStoreDurable(dir, DurableOptions{WAL: true})
				if err != nil {
					t.Fatal(err)
				}
				defer st2.Close()
				if got := indexState(st2); !reflect.DeepEqual(got, want) {
					t.Errorf("reopened index holds %v, want %v", keysOf(got), keysOf(want))
				}
				if got := fileState(dir); !reflect.DeepEqual(got, want) {
					t.Errorf("record files after reopen hold %v, want %v", keysOf(got), keysOf(want))
				}
				if q := st2.Recovery().Quarantined; len(q) != 0 {
					t.Errorf("reopen quarantined %v; the journal should have healed it", q)
				}
			})
		}
	}
}

// keysOf renders a state's keys for failure messages (the bytes are too
// long to print; a wrong key set or a differing record both show).
func keysOf[V any](s map[RecordKey]V) []string {
	keys := make([]RecordKey, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sortKeys(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k.String()
	}
	return out
}

// TestCommitSyncsOncePerEntry pins the record path's fsync cost, which
// the one-path refactor must not change: at SyncAlways a Save is one
// journal append and one journal sync, and a PutBatch of k is k of each.
func TestCommitSyncsOncePerEntry(t *testing.T) {
	st := openDurable(t, t.TempDir(), DurableOptions{WALOptions: WALOptions{Sync: SyncAlways}})
	defer st.Close()
	const n, k = 5, 3
	for i := 0; i < n; i++ {
		if err := st.Save(sampleRecord(string(rune('a' + i)))); err != nil {
			t.Fatal(err)
		}
	}
	if ws := st.WALStats(); ws.Appends != n || ws.Syncs != n {
		t.Fatalf("%d Saves cost %d appends and %d syncs, want %d of each", n, ws.Appends, ws.Syncs, n)
	}
	batch := make([]*RunRecord, k)
	for i := range batch {
		batch[i] = sampleRecord(string(rune('p' + i)))
	}
	if saved, err := st.PutBatch(batch); err != nil || saved != k {
		t.Fatalf("PutBatch = %d, %v", saved, err)
	}
	if ws := st.WALStats(); ws.Appends != n+k || ws.Syncs != n+k {
		t.Fatalf("a batch of %d cost %d appends and %d syncs, want %d of each", k, ws.Appends-n, ws.Syncs-n, k)
	}
}

// TestMetadataWritesAreDurable is the regression test for the fencing
// token and the replication state: both files go through
// WriteFileAtomic, whose rename is never reached before the data is
// synced and whose directory sync follows the rename. (A power loss
// used to be able to leave a zero-length wal/EPOCH — rejected at the
// next open as a bad epoch file — or a STATE.json without its promoted
// flag.)
func TestMetadataWritesAreDurable(t *testing.T) {
	var steps []string
	atomicOps = fsOps{
		syncFile: func(f *os.File) error { steps = append(steps, "sync data"); return f.Sync() },
		rename: func(oldpath, newpath string) error {
			steps = append(steps, "rename")
			return os.Rename(oldpath, newpath)
		},
		syncDir: func(dir string) error { steps = append(steps, "sync dir"); return syncDir(dir) },
	}
	defer func() { atomicOps = fsOps{} }()
	want := []string{"sync data", "rename", "sync dir"}

	dir := t.TempDir()
	if err := os.MkdirAll(walDirOf(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeWALEpoch(walDirOf(dir), 7); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(steps, want) {
		t.Errorf("epoch file written as %v, want %v", steps, want)
	}
	if epoch, err := JournalEpoch(dir); err != nil || epoch != 7 {
		t.Errorf("epoch reads back as %d, %v", epoch, err)
	}

	writeReplicaState(t, dir, map[string]any{"epoch": 3, "applied_seq": 9, "promoted": true})
	steps = nil
	if err := syncPromotedStateEpoch(dir, 7); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(steps, want) {
		t.Errorf("state file written as %v, want %v", steps, want)
	}
	if got := readStateEpoch(t, dir); got != 7 {
		t.Errorf("state epoch reads back as %d, want 7", got)
	}

	// A failed data sync must stop the write before the rename and leave
	// neither a changed target nor a temp file.
	before, err := os.ReadFile(filepath.Join(walDirOf(dir), walEpochName))
	if err != nil {
		t.Fatal(err)
	}
	atomicOps.syncFile = func(*os.File) error { return errors.New("injected sync failure") }
	steps = nil
	if err := writeWALEpoch(walDirOf(dir), 8); err == nil {
		t.Fatal("epoch write survived a failed data sync")
	}
	if len(steps) != 0 {
		t.Errorf("steps after a failed data sync = %v, want none", steps)
	}
	after, _ := os.ReadFile(filepath.Join(walDirOf(dir), walEpochName))
	if !bytes.Equal(before, after) {
		t.Error("failed write changed the epoch file")
	}
	des, _ := os.ReadDir(walDirOf(dir))
	for _, de := range des {
		if de.Name() != walEpochName {
			t.Errorf("failed write left %s behind", de.Name())
		}
	}
}
