package history

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fsckDurableStore builds a durable store with a few records and closes
// it, returning the directory — the "daemon exited cleanly" baseline.
func fsckDurableStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st := openDurable(t, dir, DurableOptions{Create: true, WAL: true})
	for _, run := range []string{"r1", "r2", "r3"} {
		if err := st.Save(sampleRecord(run)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func findingPaths(rep *FsckReport) []string {
	var out []string
	for _, f := range rep.Findings {
		out = append(out, f.Path)
	}
	return out
}

func TestFsckCleanStore(t *testing.T) {
	dir := fsckDurableStore(t)
	rep, err := FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckClean || len(rep.Findings) != 0 {
		t.Fatalf("clean store graded %d with findings %v", rep.Severity(), findingPaths(rep))
	}
	if rep.Records != 3 {
		t.Fatalf("Records = %d, want 3", rep.Records)
	}
}

// TestFsckFreshStoreClean: a store opened and closed without a write
// leaves its journal's first segment empty, which is no finding.
func TestFsckFreshStoreClean(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir, DurableOptions{})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, err := walSegments(walDirOf(dir)); err != nil || len(segs) != 1 {
		t.Fatalf("wal segments %v (%v), want the empty first one", segs, err)
	}
	rep, err := FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckClean || rep.WALSegments != 1 {
		t.Fatalf("a fresh store graded %d with %d segments: %v", rep.Severity(), rep.WALSegments, findingPaths(rep))
	}
}

func TestFsckMissingDirErrors(t *testing.T) {
	if _, err := FsckStore(filepath.Join(t.TempDir(), "nope"), false); err == nil {
		t.Fatal("FsckStore of a missing directory did not error")
	}
}

// TestFsckTempOrphan: an orphan of every atomic-write temp file the
// tree's writers stage — record files, wal/EPOCH, replica/STATE.json and
// PEERS.json, the session journal, a sharded store's shards/MANIFEST.json
// — is graded residue where it lies, and -repair removes it.
func TestFsckTempOrphan(t *testing.T) {
	sharded := t.TempDir()
	sh, err := OpenSharded(sharded, 2, DurableOptions{Create: true, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	sh.Close()
	for dir, tmps := range map[string][]string{
		fsckDurableStore(t): {".put-123.tmp", "wal/.epoch-1.tmp", "replica/.state-2.tmp", "replica/.peers-3.tmp", "sessions/.session-4.tmp"},
		sharded:             {"shards/.manifest-5.tmp", "shards/01/wal/.epoch-6.tmp", "sessions/.session-7.tmp"},
	} {
		for _, tmp := range tmps {
			path := filepath.Join(dir, filepath.FromSlash(tmp))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte("half a file"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := FsckStore(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		found := findingPaths(rep)
		for _, sh := range rep.Shards {
			for _, f := range sh.Findings {
				found = append(found, filepath.Join(ShardsDirName, shardDirName(sh.Shard), f.Path))
			}
		}
		if rep.Severity() != FsckResidue || len(found) != len(tmps) {
			t.Fatalf("temp orphans %v graded %d with findings %v, want residue at each", tmps, rep.Severity(), found)
		}
		for _, tmp := range tmps {
			if !strings.Contains(strings.Join(found, " "), filepath.FromSlash(tmp)) {
				t.Errorf("no finding for %s in %v", tmp, found)
			}
		}
		// Repair removes them; the next pass is clean.
		if _, err := FsckStore(dir, true); err != nil {
			t.Fatal(err)
		}
		for _, tmp := range tmps {
			if _, err := os.Stat(filepath.Join(dir, filepath.FromSlash(tmp))); !os.IsNotExist(err) {
				t.Errorf("repair left the temp orphan %s: %v", tmp, err)
			}
		}
		if rep, err = FsckStore(dir, false); err != nil || rep.Severity() != FsckClean {
			t.Fatalf("store after repair graded %d (%v): %v", rep.Severity(), err, findingPaths(rep))
		}
	}
}

func TestFsckInvalidRecordIsCorrupt(t *testing.T) {
	dir := fsckDurableStore(t)
	if err := os.WriteFile(filepath.Join(dir, "junk-x-y.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckCorrupt {
		t.Fatalf("invalid record graded %d, want corrupt", rep.Severity())
	}
	// Repair quarantines it with a REPORT.txt line; re-check accounts
	// for it cleanly.
	if _, err := FsckStore(dir, true); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir, "junk-x-y.json")); err != nil {
		t.Fatalf("repair did not quarantine the invalid record: %v", err)
	}
	rep, err = FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckClean {
		t.Fatalf("store after quarantine repair graded %d: %v", rep.Severity(), findingPaths(rep))
	}
	if rep.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", rep.Quarantined)
	}
}

// TestFsckMisnamedRecordIsRenamed: a valid record parked under a name
// its key does not map to is residue, and -repair gives it its one name
// back — the same migration the open-time recovery pass performs.
func TestFsckMisnamedRecordIsRenamed(t *testing.T) {
	dir := fsckDurableStore(t)
	canonical := filepath.Join(dir, "poisson-A-r1.json")
	stray := filepath.Join(dir, "wrong-name-here.json")
	if err := (osFS{}).Rename(canonical, stray); err != nil {
		t.Fatal(err)
	}
	rep, err := FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckResidue || rep.Records != 3 {
		t.Fatalf("misnamed record graded %d with %d records, want residue and 3: %v",
			rep.Severity(), rep.Records, findingPaths(rep))
	}
	if got := findingPaths(rep); len(got) != 1 || got[0] != "wrong-name-here.json" {
		t.Fatalf("findings = %v, want only the misnamed file", got)
	}
	if _, err := FsckStore(dir, true); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(canonical); err != nil {
		t.Errorf("repair did not restore the canonical name: %v", err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Errorf("repair left the misnamed file: %v", err)
	}
	rep, err = FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckClean {
		t.Fatalf("store after rename repair graded %d: %v", rep.Severity(), findingPaths(rep))
	}
}

func TestFsckTornWALTail(t *testing.T) {
	dir := fsckDurableStore(t)
	// Reopen so the journal holds live entries, then tear its tail.
	st := openDurable(t, dir, DurableOptions{WAL: true})
	if err := st.Save(sampleRecord("r9")); err != nil {
		t.Fatal(err)
	}
	// Do NOT Close: a clean close is not required for a WAL store. An
	// open store may have made its next segment ahead of need: the torn
	// frame is then not in the last segment, but in the last that holds
	// bytes, and is still the journal's tail.
	quiesce(st)
	st.wal.opts.SegmentBytes = 1
	st.wal.makeAhead()
	segs, err := walSegments(walDirOf(dir))
	if err != nil || len(segs) != 2 {
		t.Fatalf("wal segments %v (%v), want the active one and one made ahead", segs, err)
	}
	seg := filepath.Join(walDirOf(dir), segs[0])
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckResidue {
		t.Fatalf("torn tail graded %d, want residue: %v", rep.Severity(), findingPaths(rep))
	}
	// Repair restarts the journal past the torn frame; it then reads
	// cleanly and still agrees with disk.
	if _, err := FsckStore(dir, true); err != nil {
		t.Fatal(err)
	}
	rep, err = FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckClean {
		t.Fatalf("store after tail repair graded %d: %v", rep.Severity(), findingPaths(rep))
	}
}

func TestFsckUnappliedJournalEntry(t *testing.T) {
	dir := fsckDurableStore(t)
	st := openDurable(t, dir, DurableOptions{WAL: true})
	if err := st.Save(sampleRecord("r9")); err != nil {
		t.Fatal(err)
	}
	quiesce(st) // the store stops here, as a killed process's does
	// Crash simulation: the journaled write vanishes from disk.
	if err := os.Remove(filepath.Join(dir, "poisson-A-r9.json")); err != nil {
		t.Fatal(err)
	}
	rep, err := FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckResidue {
		t.Fatalf("unapplied entry graded %d, want residue: %v", rep.Severity(), findingPaths(rep))
	}
	found := false
	for _, f := range rep.Findings {
		if strings.Contains(f.Problem, "journaled write missing") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no journaled-write-missing finding: %v", findingPaths(rep))
	}
	// Repair replays the entry; the record is back, byte-identical.
	if _, err := FsckStore(dir, true); err != nil {
		t.Fatal(err)
	}
	rep, err = FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckClean {
		t.Fatalf("store after replay repair graded %d: %v", rep.Severity(), findingPaths(rep))
	}
	if rep.Records != 4 {
		t.Fatalf("Records = %d after replay, want 4", rep.Records)
	}
}

// TestFsckTornRecordCoveredByWAL: a record torn on disk is NOT
// corruption when the journal holds its acknowledged bytes — it grades
// as residue and -repair replays it back byte-identical.
func TestFsckTornRecordCoveredByWAL(t *testing.T) {
	dir := fsckDurableStore(t)
	st := openDurable(t, dir, DurableOptions{WAL: true})
	if err := st.Save(sampleRecord("r9")); err != nil {
		t.Fatal(err)
	}
	quiesce(st) // the store stops here, as a killed process's does
	path := filepath.Join(dir, "poisson-A-r9.json")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, want[:len(want)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckResidue {
		t.Fatalf("WAL-covered torn record graded %d, want residue: %v", rep.Severity(), findingPaths(rep))
	}
	if _, err := FsckStore(dir, true); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("replay repair did not restore the record byte-identically")
	}
	rep, err = FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckClean {
		t.Fatalf("store after replay repair graded %d: %v", rep.Severity(), findingPaths(rep))
	}
}

func TestFsckCorruptMidJournal(t *testing.T) {
	dir := fsckDurableStore(t)
	st := openDurable(t, dir, DurableOptions{WAL: true})
	if err := st.Save(sampleRecord("r9")); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte mid-segment, then add a later segment holding a
	// frame so the damage is not the journal's tail.
	segs, _ := walSegments(walDirOf(dir))
	seg := filepath.Join(walDirOf(dir), segs[len(segs)-1])
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	later, err := EncodeWALFrame(StoredEntry(sampleRecord("r9")))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(walDirOf(dir), "00000099.wal"), later, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckCorrupt {
		t.Fatalf("mid-journal corruption graded %d, want corrupt: %v", rep.Severity(), findingPaths(rep))
	}
}

func TestFsckUnrecordedQuarantineFile(t *testing.T) {
	dir := fsckDurableStore(t)
	qdir := filepath.Join(dir, QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(qdir, "mystery.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckResidue {
		t.Fatalf("unrecorded quarantine file graded %d, want residue: %v", rep.Severity(), findingPaths(rep))
	}
	// Repair records it; accounting then balances.
	if _, err := FsckStore(dir, true); err != nil {
		t.Fatal(err)
	}
	rep, err = FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckClean {
		t.Fatalf("store after accounting repair graded %d: %v", rep.Severity(), findingPaths(rep))
	}
}

func TestFsckTornSessionEntry(t *testing.T) {
	dir := fsckDurableStore(t)
	sdir := filepath.Join(dir, "sessions")
	if err := os.MkdirAll(sdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sdir, "k.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sdir, "ok.json"),
		[]byte(`{"key":"ok","state":"done","response":"cg=="}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckResidue {
		t.Fatalf("torn session entry graded %d, want residue: %v", rep.Severity(), findingPaths(rep))
	}
	if _, err := FsckStore(dir, true); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(sdir, "k.json")); !os.IsNotExist(err) {
		t.Fatalf("repair left the torn session entry: %v", err)
	}
	if _, err := os.Stat(filepath.Join(sdir, "ok.json")); err != nil {
		t.Fatalf("repair removed a healthy session entry: %v", err)
	}
}

func TestFsckShadowedDuplicate(t *testing.T) {
	dir := fsckDurableStore(t)
	// The same record under its pre-escaping name alongside its real
	// file — a copy that shadows nothing, since the key has one name.
	st := openDurable(t, dir, DurableOptions{WAL: true})
	rec := sampleRecord("r%odd")
	if err := st.Save(rec); err != nil {
		t.Fatal(err)
	}
	key := rec.Key()
	data, err := os.ReadFile(filepath.Join(dir, fileName(key)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "poisson-A-r%odd.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	st.Close()

	rep, err := FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckResidue {
		t.Fatalf("shadowed duplicate graded %d, want residue: %v", rep.Severity(), findingPaths(rep))
	}
	if _, err := FsckStore(dir, true); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir, "poisson-A-r%odd.json")); err != nil {
		t.Errorf("repair did not quarantine the duplicate: %v", err)
	}
	rep, err = FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckClean {
		t.Fatalf("store after duplicate repair graded %d: %v", rep.Severity(), findingPaths(rep))
	}
}

// TestFsckTornRecordJournaledDelete: a torn record file whose key's last
// journal entry is a delete is residue — the open replays the delete —
// and -repair removes it without quarantining anything.
func TestFsckTornRecordJournaledDelete(t *testing.T) {
	dir := fsckDurableStore(t)
	st := openDurable(t, dir, DurableOptions{WAL: true})
	if err := st.Save(sampleRecord("r9")); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("poisson", "A", "r9"); err != nil {
		t.Fatal(err)
	}
	st.Close()
	path := filepath.Join(dir, "poisson-A-r9.json")
	if err := os.WriteFile(path, []byte(`{"app": "poisson", "ver`), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckResidue {
		t.Fatalf("torn record under a journaled delete graded %d, want residue: %+v", rep.Severity(), rep.Findings)
	}
	if rep, err = FsckStore(dir, true); err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Findings {
		if !f.Repaired {
			t.Errorf("repair left %+v", f)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("repair left the torn file: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir)); !os.IsNotExist(err) {
		t.Errorf("repair quarantined something: %v", err)
	}
	if rep, err = FsckStore(dir, false); err != nil || rep.Severity() != FsckClean {
		t.Fatalf("store after repair graded %d (%v): %v", rep.Severity(), err, findingPaths(rep))
	}
}

// TestFsckRepairMovesDurably: the records -repair moves onto their home
// shard — one misplaced on another shard, one at the root of the layout —
// are there in what a power loss right after the repair leaves. (No
// journal: a shard replaying a journaled put would rewrite the record at
// home itself.)
func TestFsckRepairMovesDurably(t *testing.T) {
	dir := t.TempDir()
	sh, err := OpenSharded(dir, 4, DurableOptions{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	misplaced, rooted := sampleRecord("r1"), sampleRecord("r2")
	rooted.Version = "B"
	for _, rec := range []*RunRecord{misplaced, rooted} {
		if err := sh.Save(rec); err != nil {
			t.Fatal(err)
		}
	}
	sh.Close()
	home := func(rec *RunRecord) string {
		return filepath.Join(ShardsDirName, shardDirName(ShardForKey(rec.App, rec.Version, 4)), fileName(rec.Key()))
	}
	wrong := filepath.Join(ShardsDirName, shardDirName((ShardForKey(misplaced.App, misplaced.Version, 4)+1)%4), fileName(misplaced.Key()))
	for from, to := range map[string]string{home(misplaced): wrong, home(rooted): fileName(rooted.Key())} {
		if err := (osFS{}).Rename(filepath.Join(dir, from), filepath.Join(dir, to)); err != nil {
			t.Fatal(err)
		}
	}

	fs := newTestFS(t, dir)
	rep, err := fsck(dir, true, fs.Faults)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckResidue || rep.Misplaced != 1 {
		t.Fatalf("repair pass graded %d with %d misplaced, want residue and 1", rep.Severity(), rep.Misplaced)
	}
	img := t.TempDir()
	if err := fs.durableImage(img); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []*RunRecord{misplaced, rooted} {
		if _, err := os.Stat(filepath.Join(img, home(rec))); err != nil {
			t.Errorf("the power-loss image does not hold %s on its home shard: %v", rec.Key(), err)
		}
	}
	for _, from := range []string{wrong, fileName(rooted.Key())} {
		if _, err := os.Stat(filepath.Join(img, from)); !os.IsNotExist(err) {
			t.Errorf("the power-loss image still holds %s: %v", from, err)
		}
	}
	if rep, err := FsckStore(img, false); err != nil || rep.Severity() != FsckClean {
		t.Fatalf("the power-loss image grades %d (%v): %+v", rep.Severity(), err, rep.Findings)
	}
}
