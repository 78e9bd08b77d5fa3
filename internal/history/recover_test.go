package history

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// writeStoreFile drops raw bytes into a store directory under name.
func writeStoreFile(t *testing.T, dir, name string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenStoreSweepsOrphanedTemp proves crash recovery reclaims the
// temp files an interrupted atomic write leaves behind.
func TestOpenStoreSweepsOrphanedTemp(t *testing.T) {
	dir := t.TempDir()
	st0, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st0.Save(sampleRecord("r1")); err != nil {
		t.Fatal(err)
	}
	writeStoreFile(t, dir, ".put-123.tmp", []byte("half a rec"))
	writeStoreFile(t, dir, ".put-456.tmp", nil)

	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep := st.Recovery()
	if rep == nil || len(rep.SweptTemp) != 2 {
		t.Fatalf("recovery report = %+v, want 2 swept temp files", rep)
	}
	for _, name := range rep.SweptTemp {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("swept temp file %s still present", name)
		}
	}
	if st.Len() != 1 {
		t.Errorf("store holds %d records after sweep, want 1", st.Len())
	}
}

// TestOpenStoreQuarantinesCorruptRecords is the quarantine round trip:
// corrupt files are moved aside (not deleted) with a report, a rescan is
// clean, and a hand-repaired file moved back is indexed again.
func TestOpenStoreQuarantinesCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	st0, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := sampleRecord("good")
	if err := st0.Save(good); err != nil {
		t.Fatal(err)
	}
	// A torn write (truncated JSON) and garbage bytes.
	full, err := json.MarshalIndent(sampleRecord("torn"), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	writeStoreFile(t, dir, "poisson-A-torn.json", full[:len(full)/2])
	writeStoreFile(t, dir, "poisson-A-junk.json", []byte("not json at all"))

	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep := st.Recovery()
	if rep == nil || len(rep.Quarantined) != 2 {
		t.Fatalf("recovery report = %+v, want 2 quarantined entries", rep)
	}
	// The index is clean: only the good record, no lingering issues.
	if st.Len() != 1 {
		t.Errorf("store holds %d records, want 1", st.Len())
	}
	if issues := st.ScanIssues(); len(issues) != 0 {
		t.Errorf("scan issues remain after quarantine: %v", issues)
	}
	// The files moved into quarantine/ byte-for-byte, and the report
	// names them with reasons.
	qdir := filepath.Join(dir, QuarantineDir)
	torn, err := os.ReadFile(filepath.Join(qdir, "poisson-A-torn.json"))
	if err != nil {
		t.Fatalf("quarantined file unreadable: %v", err)
	}
	if string(torn) != string(full[:len(full)/2]) {
		t.Error("quarantine altered the corrupt bytes")
	}
	report, err := os.ReadFile(filepath.Join(qdir, "REPORT.txt"))
	if err != nil {
		t.Fatalf("quarantine report missing: %v", err)
	}
	for _, name := range []string{"poisson-A-torn.json", "poisson-A-junk.json"} {
		if !strings.Contains(string(report), name) {
			t.Errorf("report does not mention %s:\n%s", name, report)
		}
	}

	// Restore by hand: repair the torn record and move it back.
	if err := os.WriteFile(filepath.Join(dir, "poisson-A-torn.json"), full, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Recovery().Empty() {
		t.Errorf("second recovery not clean: %+v", st2.Recovery())
	}
	if st2.Len() != 2 {
		t.Errorf("restored store holds %d records, want 2", st2.Len())
	}
	if _, err := st2.Load("poisson", "A", "torn"); err != nil {
		t.Errorf("restored record not loadable: %v", err)
	}
}

// TestOpenStoreRecoversTornFaultInjection drives the crash story through
// the injector: torn writes tear the journal frame and the staged record
// file of a Save, and neither reaches a record file — the commit takes
// the frame back and removes the staged file — so the next open finds
// nothing to repair. (A torn record file is a crash image's, which
// TestCrashPoints and TestOpenStoreQuarantinesCorruptRecords cover.)
func TestOpenStoreRecoversTornFaultInjection(t *testing.T) {
	dir := t.TempDir()
	st, faults := faultedStore(t, dir, FaultConfig{Seed: 11, TornWriteRate: 1})
	err := st.Save(sampleRecord("torn"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Save through torn injector = %v, want injected failure", err)
	}
	if c := faults.Counters(); c.TornWrites != 2 {
		t.Errorf("counters = %+v, want the frame and the staged file torn", c)
	}
	st.Close()

	reopened, err := OpenStoreDurable(dir, DurableOptions{WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if rep := reopened.Recovery(); !rep.Empty() {
		t.Fatalf("recovery report = %+v, want nothing to repair", rep)
	}
	if reopened.Len() != 0 {
		t.Errorf("torn record made it into the index")
	}
}

// TestFSBackendRenameFailureCleansTemp is the regression test for the
// atomic-write cleanup path: when the commit rename itself fails, the
// temp file must not survive. The rename fault is injected through the
// backend's hook so the failure is precise and repeatable.
func TestFSBackendRenameFailureCleansTemp(t *testing.T) {
	dir := t.TempDir()
	b, err := NewFSBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	renameErr := errors.New("injected rename failure")
	fs := newTestFS(t, dir)
	fs.install(b, nil)
	fs.before = func(op fsOp) error {
		if op.kind == "rename" {
			return renameErr
		}
		return nil
	}

	err = b.Put(RecordKey{App: "a", RunID: "r"}, []byte("{}"))
	if !errors.Is(err, renameErr) {
		t.Fatalf("Put with failing rename = %v, want the injected error", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("failed Put left files behind: %v", names)
	}

	// A recovering open of the same directory is a no-op.
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Recovery().Empty() {
		t.Errorf("recovery found leftovers: %+v", st.Recovery())
	}
}

// TestEveryWritersTempSweptAtOpen: an open sweeps the orphaned temp file
// of every writer of its directory — the replication state and peers and
// the session journal as well as its own records and journal epoch — so a
// store opened and closed once grades clean.
func TestEveryWritersTempSweptAtOpen(t *testing.T) {
	dir := fsckDurableStore(t)
	tmps := []string{".put-1.tmp", "wal/.epoch-2.tmp", "replica/.state-3.tmp", "replica/.peers-4.tmp", "sessions/.session-5.tmp"}
	for _, tmp := range tmps {
		path := filepath.Join(dir, filepath.FromSlash(tmp))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		writeStoreFile(t, filepath.Dir(path), filepath.Base(path), []byte("half a file"))
	}
	st, err := OpenStoreDurable(dir, DurableOptions{WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if swept := st.Recovery().SweptTemp; !slices.Equal(swept, tmps) {
		t.Errorf("open swept %v, want %v", swept, tmps)
	}
	if rep, err := FsckStore(dir, false); err != nil || rep.Severity() != FsckClean {
		t.Fatalf("store after one open grades %d (%v): %v", rep.Severity(), err, findingPaths(rep))
	}
}

// TestShardedOpenSweepsRootTemp: the temp files of a sharded root's own
// writers, the session journal and the manifest, are swept by its open
// and reported, so the root grades clean without -repair.
func TestShardedOpenSweepsRootTemp(t *testing.T) {
	dir := t.TempDir()
	sh, err := OpenSharded(dir, 2, DurableOptions{Create: true, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	sh.Close()
	tmps := []string{"sessions/.session-1.tmp", "shards/.manifest-2.tmp"}
	for _, tmp := range tmps {
		path := filepath.Join(dir, filepath.FromSlash(tmp))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		writeStoreFile(t, filepath.Dir(path), filepath.Base(path), []byte("half a file"))
	}
	if rep, err := FsckStore(dir, false); err != nil || rep.Severity() != FsckResidue {
		t.Fatalf("orphans graded %d (%v), want residue", rep.Severity(), err)
	}
	sh, err = OpenSharded(dir, 0, DurableOptions{WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	sh.Close()
	if swept := sh.Recovery().SweptTemp; !slices.Equal(swept, tmps) {
		t.Errorf("open swept %v, want %v", swept, tmps)
	}
	for _, tmp := range tmps {
		if _, err := os.Stat(filepath.Join(dir, filepath.FromSlash(tmp))); !os.IsNotExist(err) {
			t.Errorf("%s survived the open: %v", tmp, err)
		}
	}
	if rep, err := FsckStore(dir, false); err != nil || rep.Severity() != FsckClean {
		t.Fatalf("sharded root after one open grades %d (%v): %v", rep.Severity(), err, findingPaths(rep))
	}
}
