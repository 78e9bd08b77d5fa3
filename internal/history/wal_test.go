package history

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// walDirOf is the journal directory of a store rooted at dir.
func walDirOf(dir string) string { return filepath.Join(dir, WALDirName) }

// openDurable opens (creating) a WAL-enabled store for tests.
func openDurable(t *testing.T, dir string, o DurableOptions) *Store {
	t.Helper()
	o.Create = true
	o.WAL = true
	st, err := OpenStoreDurable(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() }) // its spares are gone before its directory
	return st
}

func TestParseSyncPolicy(t *testing.T) {
	for _, s := range []string{"always", "interval", "none"} {
		p, err := ParseSyncPolicy(s)
		if err != nil || string(p) != s {
			t.Errorf("ParseSyncPolicy(%q) = %q, %v", s, p, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted an unknown policy")
	}
}

// TestStoreDirSeesThroughWrappers: Dir must report the filesystem
// directory even when the backend is wrapped (a tracing decorator) — the
// session journal and quarantine paths pcd derives from it must land
// inside the store, not in the daemon's working directory.
func TestStoreDirSeesThroughWrappers(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStoreDurable(dir, DurableOptions{
		Create: true, WAL: true,
		Wrap: func(b Backend) Backend { return passThrough{b} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Dir(); got != dir {
		t.Fatalf("Dir() through a wrapper = %q, want %q", got, dir)
	}
}

// TestWALAppendReadRoundTrip frames entries through a journal and reads
// them back byte-for-byte, in order.
func TestWALAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := StartWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []WALEntry{
		{Op: walOpPut, App: "a", Version: "v", RunID: "r1", Data: []byte(`{"x":1}`)},
		{Op: walOpDelete, App: "a", Version: "v", RunID: "r1"},
		{Op: walOpPut, App: "b", RunID: "r2", Data: []byte(`{"y":2}`)},
	}
	for _, e := range want {
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, rep, err := ReadWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornTail || len(rep.Corrupt) != 0 {
		t.Fatalf("clean journal read as damaged: %+v", rep)
	}
	if rep.Segments != 1 || rep.Entries != len(want) {
		t.Errorf("scan report = %+v, want 1 segment, %d entries", rep, len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("read %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Op != want[i].Op || got[i].Key() != want[i].Key() ||
			!bytes.Equal(got[i].Data, want[i].Data) {
			t.Errorf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	stats := w.Stats()
	if stats.Appends != 3 || stats.Syncs != 3 {
		t.Errorf("SyncAlways stats = %+v, want 3 appends, 3 syncs", stats)
	}
}

// TestWALMissingDirIsEmptyJournal: a store written before the WAL existed
// has no wal/ directory, and that must read as an empty journal.
func TestWALMissingDirIsEmptyJournal(t *testing.T) {
	entries, rep, err := ReadWAL(filepath.Join(t.TempDir(), "nope"))
	if err != nil || len(entries) != 0 || rep.Segments != 0 {
		t.Fatalf("ReadWAL(missing) = %v, %+v, %v; want empty journal", entries, rep, err)
	}
}

// TestWALTornTail truncates the final frame mid-payload — the normal
// residue of a crash mid-append. Earlier entries stay readable and the
// report flags the tail, not corruption.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := StartWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(WALEntry{Op: walOpDelete, App: "a", RunID: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "00000001.wal")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	entries, rep, err := ReadWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TornTail {
		t.Error("truncated final frame not reported as torn tail")
	}
	if len(rep.Corrupt) != 0 {
		t.Errorf("torn tail misreported as corruption: %v", rep.Corrupt)
	}
	if len(entries) != 2 {
		t.Errorf("read %d entries before the torn frame, want 2", len(entries))
	}
}

// TestWALCorruptMidSegment flips a byte in a non-final frame: that is
// real corruption, reported as such, and reading that segment stops
// there.
func TestWALCorruptMidSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := StartWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(WALEntry{Op: walOpDelete, App: "a", RunID: "r0"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(WALEntry{Op: walOpDelete, App: "a", RunID: "r1"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// A second segment holding a frame, so the damage is not in the
	// journal's tail: the last segment that holds bytes.
	later, err := EncodeWALFrame(WALEntry{Op: walOpDelete, App: "a", RunID: "r2"})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "00000002.wal"), later, 0o644); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "00000001.wal")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xff // inside the first frame's payload
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	entries, rep, err := ReadWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != 1 || !strings.Contains(rep.Corrupt[0], "00000001.wal") {
		t.Errorf("corrupt frames = %v, want one in segment 1", rep.Corrupt)
	}
	if rep.TornTail {
		t.Error("mid-journal corruption misreported as torn tail")
	}
	if len(entries) != 1 || entries[0].RunID != "r2" {
		t.Errorf("read %v, want none from the corrupted segment and r2 from the later one", entries)
	}
}

// TestWALRotationCompacts drives the journal past its segment size many
// times and proves rotation discards fully-applied segments instead of
// retaining the whole history: at the rotation itself, or — once the
// next segment was made ahead, as a store's spare pool does between
// commits — in the next makeAhead. Either way the disk holds the active
// segment and, made ahead, at most the next one, which Close removes.
func TestWALRotationCompacts(t *testing.T) {
	for _, ahead := range []bool{false, true} {
		t.Run(fmt.Sprintf("ahead=%v", ahead), func(t *testing.T) {
			dir := t.TempDir()
			w, err := StartWAL(dir, WALOptions{SegmentBytes: 256, Sync: SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			made := 0
			for i := 0; i < 100; i++ {
				e := WALEntry{Op: walOpPut, App: "app", RunID: fmt.Sprintf("r%03d", i),
					Data: []byte(`{"pad":"` + strings.Repeat("x", 64) + `"}`)}
				if err := w.Append(e); err != nil {
					t.Fatal(err)
				}
				if ahead && w.ahead.Load() {
					if had := w.next != nil; !w.makeAhead() {
						t.Fatal("makeAhead failed")
					} else if !had && w.next != nil {
						made++
					}
				}
			}
			stats := w.Stats()
			if stats.Rotations == 0 {
				t.Fatal("journal never rotated at a 256-byte segment size")
			}
			if ahead && made < int(stats.Rotations) {
				t.Errorf("%d segments made ahead for %d rotations", made, stats.Rotations)
			}
			segs, err := walSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			want := []string{fmt.Sprintf("%08d%s", w.seq, walSuffix)}
			if w.next != nil {
				want = append(want, fmt.Sprintf("%08d%s", w.seq+1, walSuffix))
			}
			if !reflect.DeepEqual(segs, want) {
				t.Errorf("segments on disk after compacting rotations %v, want %v", segs, want)
			}
			if stats.Segments != len(segs) {
				t.Errorf("stats report %d segments, disk has %d", stats.Segments, len(segs))
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if segs, _ := walSegments(dir); len(segs) != 1 || w.Stats().Segments != 1 {
				t.Errorf("segments after Close %v (stats %d), want the active one", segs, w.Stats().Segments)
			}
		})
	}
}

// TestWALTornTailBeforeEmptySegment: the journal's tail is the last
// segment that holds bytes, so a torn final frame followed by the empty
// segment an open store made ahead of need is crash residue, not
// corruption — until a later segment holds a frame.
func TestWALTornTailBeforeEmptySegment(t *testing.T) {
	dir := t.TempDir()
	w, err := StartWAL(dir, WALOptions{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, run := range []string{"r0", "r1"} {
		if err := w.Append(WALEntry{Op: walOpDelete, App: "a", RunID: run}); err != nil {
			t.Fatal(err)
		}
	}
	if w.makeAhead(); w.next == nil {
		t.Fatal("no segment made ahead")
	}
	seg := w.segmentPath(1)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	entries, rep, err := ReadWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments != 2 || !rep.TornTail || len(rep.Corrupt) != 0 || len(entries) != 1 {
		t.Fatalf("read %d entries, %+v; want 1 entry of 2 segments and a torn tail", len(entries), rep)
	}
	later, err := EncodeWALFrame(WALEntry{Op: walOpDelete, App: "a", RunID: "r2"})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(w.segmentPath(2), later, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, rep, err = ReadWAL(dir); err != nil || rep.TornTail || len(rep.Corrupt) != 1 {
		t.Fatalf("with a frame in the later segment: %+v, %v; want the torn frame corrupt", rep, err)
	}
}

// TestWALUnsafeCompactRetainsSegments: once a compensation could not be
// healed, rotation must stop discarding old segments — replay at next
// open needs them.
func TestWALUnsafeCompactRetainsSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := StartWAL(dir, WALOptions{SegmentBytes: 256, Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	w.markUnsafe()
	for i := 0; i < 50; i++ {
		e := WALEntry{Op: walOpPut, App: "app", RunID: fmt.Sprintf("r%03d", i),
			Data: []byte(`{"pad":"` + strings.Repeat("x", 64) + `"}`)}
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := walSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Errorf("unsafe journal kept %d segments, want all rotated ones retained", len(segs))
	}
}

// TestWALSyncPolicies checks the fsync cadence each policy promises.
func TestWALSyncPolicies(t *testing.T) {
	append3 := func(w *WAL) {
		t.Helper()
		for i := 0; i < 3; i++ {
			if err := w.Append(WALEntry{Op: walOpDelete, App: "a", RunID: fmt.Sprintf("r%d", i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	w, err := StartWAL(t.TempDir(), WALOptions{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	append3(w)
	if got := w.Stats().Syncs; got != 0 {
		t.Errorf("SyncNone fsynced %d times, want 0", got)
	}
	w.Close()

	w, err = StartWAL(t.TempDir(), WALOptions{Sync: SyncIntervalPolicy, SyncEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	append3(w)
	if got := w.Stats().Syncs; got > 1 {
		t.Errorf("SyncIntervalPolicy(1h) fsynced %d times across 3 appends, want at most 1", got)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Syncs; got == 0 {
		t.Error("explicit Sync did not fsync a dirty journal")
	}
	w.Close()
}

// TestWALFoldLastWins: the fold resolves each key to its final entry.
func TestWALFoldLastWins(t *testing.T) {
	fold := WALFold([]WALEntry{
		{Op: walOpPut, App: "a", RunID: "r1", Data: []byte(`1`)},
		{Op: walOpPut, App: "a", RunID: "r2", Data: []byte(`2`)},
		{Op: walOpPut, App: "a", RunID: "r1", Data: []byte(`3`)},
		{Op: walOpDelete, App: "a", RunID: "r2"},
	})
	if len(fold) != 2 {
		t.Fatalf("fold has %d keys, want 2", len(fold))
	}
	if e := fold[RecordKey{App: "a", RunID: "r1"}]; string(e.Data) != `3` {
		t.Errorf("r1 folded to %s, want the last put", e.Data)
	}
	if e := fold[RecordKey{App: "a", RunID: "r2"}]; e.Op != walOpDelete {
		t.Errorf("r2 folded to %q, want the delete", e.Op)
	}
}

// TestReplayWALOnlyWhereDiskDiffers: entries the record files already
// reflect are not rewritten.
func TestReplayWALOnlyWhereDiskDiffers(t *testing.T) {
	b := NewMemBackend()
	put := func(run string) WALEntry {
		m, err := putMutation(sampleRecord(run))
		if err != nil {
			t.Fatal(err)
		}
		return m.WALEntry
	}
	same, fresh, doomed := put("r1"), put("r2"), put("r3")
	if err := b.Put(same.Key(), same.Data); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(doomed.Key(), doomed.Data); err != nil {
		t.Fatal(err)
	}
	st, err := NewStoreWith(b)
	if err != nil {
		t.Fatal(err)
	}
	ms, invalid := foldMutations([]WALEntry{
		same,  // already there
		fresh, // missing on disk
		{Op: walOpDelete, App: "poisson", Version: "A", RunID: "r3"},                  // still on disk
		{Op: walOpDelete, App: "poisson", Version: "A", RunID: "r4"},                  // already gone
		{Op: walOpPut, App: "poisson", Version: "A", RunID: "r5", Data: []byte(`{}`)}, // not a record
	})
	if len(invalid) != 1 || !strings.Contains(invalid[0], "r5") {
		t.Errorf("invalid = %v, want only the r5 entry", invalid)
	}
	applied, err := st.commit(ms, commitRedo)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 {
		t.Errorf("replay applied %d entries, want 2 (the missing put and the pending delete)", applied)
	}
	if data, err := b.Get(fresh.Key()); err != nil || !bytes.Equal(data, fresh.Data) {
		t.Errorf("replayed put missing: %v", err)
	}
	if _, err := b.Get(doomed.Key()); !errors.Is(err, os.ErrNotExist) {
		t.Error("replayed delete did not remove the record")
	}
	if got := st.Keys(); len(got) != 2 {
		t.Errorf("index after replay holds %v, want r1 and r2", got)
	}
}

// TestDurableStoreCrashLosesNothing is the WAL's core promise: after
// acked Saves and a Delete, wipe the record files behind the store's
// back (a maximally torn crash) and reopen — the journal replays every
// acknowledged mutation and the recovery report says so.
func TestDurableStoreCrashLosesNothing(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir, DurableOptions{})
	for _, id := range []string{"r1", "r2", "r3"} {
		if err := st.Save(sampleRecord(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Delete("poisson", "A", "r2"); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close, and the record files vanish out from under it.
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if !de.IsDir() && strings.HasSuffix(de.Name(), ".json") {
			if err := os.Remove(filepath.Join(dir, de.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}

	st2, err := OpenStoreDurable(dir, DurableOptions{WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := st2.Recovery()
	if rep == nil || rep.WAL == nil {
		t.Fatal("durable open produced no WAL recovery report")
	}
	if rep.WAL.Replayed != 2 {
		t.Errorf("replayed %d entries, want 2 (r1 and r3; r2 was deleted)", rep.WAL.Replayed)
	}
	if rep.WAL.TornTail || len(rep.WAL.Corrupt) != 0 {
		t.Errorf("clean journal reported damaged: %+v", rep.WAL)
	}
	if st2.Len() != 2 {
		t.Fatalf("store holds %d records after replay, want 2", st2.Len())
	}
	for _, id := range []string{"r1", "r3"} {
		rec, err := st2.Load("poisson", "A", id)
		if err != nil {
			t.Fatalf("load %s after replay: %v", id, err)
		}
		want, _ := json.MarshalIndent(sampleRecord(id), "", "  ")
		got, _ := json.MarshalIndent(rec, "", "  ")
		if !bytes.Equal(got, want) {
			t.Errorf("replayed %s differs from the acknowledged record", id)
		}
	}
	if _, err := st2.Load("poisson", "A", "r2"); !errors.Is(err, os.ErrNotExist) {
		t.Error("deleted record resurrected by replay")
	}
}

// TestDurableStoreTornRecordHealed: a crash can tear the record file of
// an already-acked Save (rename published, data page lost). Replay must
// restore the acked bytes rather than quarantine the file.
func TestDurableStoreTornRecordHealed(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir, DurableOptions{})
	if err := st.Save(sampleRecord("r1")); err != nil {
		t.Fatal(err)
	}
	// Tear the record file in place.
	name := fileName(RecordKey{App: "poisson", Version: "A", RunID: "r1"})
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStoreDurable(dir, DurableOptions{WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := st2.Recovery()
	if rep.WAL == nil || rep.WAL.Replayed != 1 {
		t.Fatalf("torn acked record not replayed: %+v", rep.WAL)
	}
	if len(rep.Quarantined) != 0 {
		t.Errorf("journal-repairable record was quarantined: %v", rep.Quarantined)
	}
	rec, err := st2.Load("poisson", "A", "r1")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.MarshalIndent(rec, "", "  ")
	if !bytes.Equal(got, data) {
		t.Error("healed record differs from the acknowledged bytes")
	}
}

// TestDurableStoreCompensation: a Put the backend rejects must not win
// the replay fold — the pre-image (or absence) is what the caller last
// had acknowledged.
func TestDurableStoreCompensation(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir, DurableOptions{})
	if err := st.Save(sampleRecord("r1")); err != nil {
		t.Fatal(err)
	}
	ackedBytes, err := os.ReadFile(filepath.Join(dir, fileName(RecordKey{App: "poisson", Version: "A", RunID: "r1"})))
	if err != nil {
		t.Fatal(err)
	}
	quiesce(st)
	fs := newTestFS(t, dir)
	fs.install(st.Backend().(*FSBackend), st.wal)
	fs.before = func(op fsOp) error {
		if op.kind == "rename" {
			return fmt.Errorf("injected rename failure")
		}
		return nil
	}
	changed := sampleRecord("r1")
	changed.Duration = 999
	if err := st.Save(changed); err == nil {
		t.Fatal("Save succeeded through a failing rename")
	}
	// A brand-new key failing is compensated with a delete entry.
	if err := st.Save(sampleRecord("r9")); err == nil {
		t.Fatal("Save succeeded through a failing rename")
	}
	quiesce(st)
	fs.before = nil

	// Replay the journal as the next open would: the failed writes' intent
	// must not surface.
	entries, _, err := ReadWAL(walDirOf(dir))
	if err != nil {
		t.Fatal(err)
	}
	fold := WALFold(entries)
	e := fold[RecordKey{App: "poisson", Version: "A", RunID: "r1"}]
	if e.Op != walOpPut || !bytes.Equal(e.Data, ackedBytes) {
		t.Errorf("r1 folds to %q (%d bytes), want the acked pre-image put", e.Op, len(e.Data))
	}
	if e := fold[RecordKey{App: "poisson", Version: "A", RunID: "r9"}]; e.Op != walOpDelete {
		t.Errorf("never-acked r9 folds to %q, want delete", e.Op)
	}
	// And on disk, the acked state survived the failed overwrite.
	cur, err := os.ReadFile(filepath.Join(dir, fileName(RecordKey{App: "poisson", Version: "A", RunID: "r1"})))
	if err != nil || !bytes.Equal(cur, ackedBytes) {
		t.Error("acked record bytes changed despite the failed Save")
	}
}

// TestDurableStorePreWALLayoutOpens: forward compatibility — a store
// written before this PR (no wal/ directory) opens durably with an empty
// journal, and a durable store's wal/ and sessions/ subdirectories are
// invisible to the pre-WAL open path.
func TestDurableStorePreWALLayoutOpens(t *testing.T) {
	dir := t.TempDir()
	st0, err := NewStore(dir) // pre-PR-5 writer: no journal
	if err != nil {
		t.Fatal(err)
	}
	if err := st0.Save(sampleRecord("r1")); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStoreDurable(dir, DurableOptions{WAL: true})
	if err != nil {
		t.Fatalf("pre-WAL layout failed the durable open: %v", err)
	}
	if rep := st.Recovery(); !rep.WAL.Empty() {
		t.Errorf("empty-journal open reported WAL work: %+v", rep.WAL)
	}
	if st.Len() != 1 {
		t.Errorf("pre-WAL records lost: %d indexed, want 1", st.Len())
	}
	if err := st.Save(sampleRecord("r2")); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// And backwards: the old open path must not trip over wal/.
	stOld, err := OpenStoreDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("pre-WAL open path rejected a durable store: %v", err)
	}
	if stOld.Len() != 2 {
		t.Errorf("old open path sees %d records, want 2", stOld.Len())
	}
	if len(stOld.Recovery().Quarantined) != 0 {
		t.Errorf("old open path quarantined journal files: %v", stOld.Recovery().Quarantined)
	}
}

// TestFSBackendPutFsyncsDirAfterRename is the satellite regression test:
// the directory fsync happens after (and only after) the rename commits,
// and a failing fsync surfaces as a Put error.
func TestFSBackendPutFsyncsDirAfterRename(t *testing.T) {
	dir := t.TempDir()
	b, err := NewFSBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	fs := newTestFS(t, dir)
	fs.install(b, nil)
	fs.before = func(op fsOp) error {
		switch {
		case op.kind == "rename":
			order = append(order, "rename")
		case op.kind == "syncdir" && op.path == dir:
			order = append(order, "syncdir")
		}
		return nil
	}
	key := RecordKey{App: "a", RunID: "r1"}
	if err := b.Put(key, []byte(`{"app":"a","run_id":"r1"}`)); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "rename" || order[1] != "syncdir" {
		t.Fatalf("Put ordering = %v, want rename then directory fsync", order)
	}
	// A failed rename must not fsync (nothing committed).
	order = nil
	fs.before = func(op fsOp) error {
		switch op.kind {
		case "rename":
			return fmt.Errorf("injected")
		case "syncdir":
			order = append(order, "syncdir")
		}
		return nil
	}
	if err := b.Put(key, []byte(`{}`)); err == nil {
		t.Fatal("Put succeeded through a failing rename")
	}
	for _, step := range order {
		if step == "syncdir" {
			t.Error("directory fsynced for an uncommitted rename")
		}
	}
	// A failing fsync fails the Put: the write is not durable.
	fs.before = func(op fsOp) error {
		if op.kind == "syncdir" {
			return fmt.Errorf("injected fsync failure")
		}
		return nil
	}
	if err := b.Put(key, []byte(`{"app":"a","run_id":"r1"}`)); err == nil ||
		!strings.Contains(err.Error(), "sync dir") {
		t.Errorf("Put with failing dir fsync returned %v, want a sync dir error", err)
	}
}

// TestFSBackendPutFsyncsFileBeforeRename: the record's data reaches
// stable storage before the rename can publish it. Without that order a
// power loss can make the rename durable while the file's blocks are
// not, leaving a zero-length or torn record the WAL was already trimmed
// of.
func TestFSBackendPutFsyncsFileBeforeRename(t *testing.T) {
	dir := t.TempDir()
	b, err := NewFSBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	fs := newTestFS(t, dir)
	fs.install(b, nil)
	fs.before = func(op fsOp) error {
		switch op.kind {
		case "sync":
			order = append(order, "syncfile")
		case "rename":
			order = append(order, "rename")
		}
		return nil
	}
	key := RecordKey{App: "a", RunID: "r1"}
	if err := b.Put(key, []byte(`{"app":"a","run_id":"r1"}`)); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "syncfile" || order[1] != "rename" {
		t.Fatalf("Put ordering = %v, want the data fsync before the rename", order)
	}
	// A failing data fsync fails the Put before anything is published,
	// and the temp file does not survive.
	order = nil
	fs.before = func(op fsOp) error {
		switch op.kind {
		case "sync":
			return fmt.Errorf("injected data fsync failure")
		case "rename":
			order = append(order, "rename")
		}
		return nil
	}
	if err := b.Put(key, []byte(`{}`)); err == nil {
		t.Fatal("Put succeeded through a failing data fsync")
	}
	for _, step := range order {
		if step == "rename" {
			t.Error("rename ran after the data fsync failed")
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".put-") {
			t.Errorf("temp file %s survived a failed Put", e.Name())
		}
	}
}

// TestWALAppendTornFrameRepaired: a failed (partial) frame write must
// not leave garbage mid-segment for later frames to follow — replay
// stops at the first bad frame, so every later acknowledged entry would
// be invisible. After a torn append the segment is restored to its last
// good frame and subsequent appends replay cleanly.
func TestWALAppendTornFrameRepaired(t *testing.T) {
	dir := filepath.Join(t.TempDir(), WALDirName)
	w, err := StartWAL(dir, WALOptions{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(WALEntry{Op: walOpPut, App: "a", RunID: "r1", Data: []byte("one")}); err != nil {
		t.Fatal(err)
	}
	// Tear the next frame: half its bytes land, then the write fails.
	fs := newTestFS(t, dir)
	fs.install(nil, w)
	fs.before = func(op fsOp) error {
		if op.kind == "write" {
			return fmt.Errorf("injected torn write")
		}
		return nil
	}
	if err := w.Append(WALEntry{Op: walOpPut, App: "a", RunID: "r2", Data: []byte("two")}); err == nil {
		t.Fatal("Append succeeded through a torn write")
	}
	fs.before = nil
	// The next append must land where the torn frame began, not after
	// its garbage.
	if err := w.Append(WALEntry{Op: walOpPut, App: "a", RunID: "r3", Data: []byte("three")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	entries, rep, err := ReadWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornTail || len(rep.Corrupt) != 0 {
		t.Fatalf("journal not clean after torn-append repair: %+v", rep)
	}
	if len(entries) != 2 || entries[0].RunID != "r1" || entries[1].RunID != "r3" {
		t.Fatalf("replayable entries = %+v, want the two acknowledged appends [r1 r3]", entries)
	}
}

// TestFSBackendQuarantineFsyncsDirs: the quarantine move fsyncs both the
// quarantine directory and the store directory.
func TestFSBackendQuarantineFsyncsDirs(t *testing.T) {
	dir := t.TempDir()
	b, err := NewFSBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	var synced []string
	fs := newTestFS(t, dir)
	fs.install(b, nil)
	fs.before = func(op fsOp) error {
		if op.kind == "syncdir" {
			synced = append(synced, op.path)
		}
		return nil
	}
	if err := b.Quarantine("bad.json", "testing"); err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(dir, QuarantineDir), dir}
	if len(synced) != 2 || synced[0] != want[0] || synced[1] != want[1] {
		t.Fatalf("quarantine fsynced %v, want %v", synced, want)
	}
}

// TestStoreDeleteLegacyNamedRecord: a record that exists only under its
// pre-escaping file name is deletable — the open-time pass has given it
// its canonical name, which is the one name Delete removes.
func TestStoreDeleteLegacyNamedRecord(t *testing.T) {
	dir := t.TempDir()
	rec := sampleRecord("r-1")
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	legacy := "poisson-A-r-1.json" // canonical: poisson-A-r%2D1.json
	if err := os.WriteFile(filepath.Join(dir, legacy), data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStoreDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Fatalf("legacy record not indexed: %d records", st.Len())
	}
	if err := st.Delete("poisson", "A", "r-1"); err != nil {
		t.Fatalf("Delete of legacy-named-only record failed: %v", err)
	}
	for _, name := range []string{legacy, fileName(rec.Key())} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s survived Delete", name)
		}
	}
	if _, err := st.Load("poisson", "A", "r-1"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Load after legacy Delete = %v, want not-exist", err)
	}
	// Deleting a key with no file at all is a miss.
	if err := st.Delete("poisson", "A", "r-1"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("second Delete = %v, want not-exist", err)
	}
}

// TestFSBackendDeleteLegacyCollision: app "poisson-A" run "r1" stored
// under its pre-escaping name squats on poisson-A-r1.json — the
// canonical name of app "poisson" version "A" run "r1". The open-time
// pass moves the squatter to its own name, so a Delete of the other key
// finds nothing and harms nothing; a duplicate of a record that already
// has its file is quarantined, not indexed twice.
func TestFSBackendDeleteLegacyCollision(t *testing.T) {
	dir := t.TempDir()
	other := sampleRecord("r1")
	other.App, other.Version = "poisson-A", ""
	data, _ := json.MarshalIndent(other, "", "  ")
	if err := os.WriteFile(filepath.Join(dir, "poisson-A-r1.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStoreDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("poisson", "A", "r1"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Delete = %v, want not-exist", err)
	}
	if _, err := os.Stat(filepath.Join(dir, fileName(other.Key()))); err != nil {
		t.Error("colliding key's record removed by another key's Delete")
	}
	if _, err := st.Load("poisson-A", "", "r1"); err != nil {
		t.Errorf("colliding key's record not served: %v", err)
	}
	// A second copy under yet another name: the key has its file, so the
	// copy is a shadowed duplicate.
	if err := os.WriteFile(filepath.Join(dir, "copy.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStoreDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 1 || len(st2.Recovery().Quarantined) != 1 {
		t.Errorf("duplicate not quarantined: %d records, recovery %+v", st2.Len(), st2.Recovery())
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir, "copy.json")); err != nil {
		t.Error("shadowed duplicate not moved to quarantine")
	}
}

// TestDurableStoreDeterminism: the WAL must not perturb what the store
// serves — saving and loading through a durable store returns the same
// records as a plain one.
func TestDurableStoreDeterminism(t *testing.T) {
	plainDir, durDir := t.TempDir(), t.TempDir()
	plain, err := NewStore(plainDir)
	if err != nil {
		t.Fatal(err)
	}
	dur := openDurable(t, durDir, DurableOptions{})
	for _, id := range []string{"r1", "r2"} {
		if err := plain.Save(sampleRecord(id)); err != nil {
			t.Fatal(err)
		}
		if err := dur.Save(sampleRecord(id)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"r1", "r2"} {
		name := fileName(RecordKey{App: "poisson", Version: "A", RunID: id})
		a, err := os.ReadFile(filepath.Join(plainDir, name))
		if err != nil {
			t.Fatal(err)
		}
		c, err := os.ReadFile(filepath.Join(durDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, c) {
			t.Errorf("record %s bytes differ between plain and durable stores", id)
		}
	}
}
