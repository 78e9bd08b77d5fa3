package history

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// copyTree copies the files under src to dst as they are at this instant
// — what a crash here would leave on disk. A file another goroutine is
// still writing comes out short, which is what a crash does to it.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatalf("copy %s: %v", src, err)
	}
}

// TestCrashPoints enumerates every crash point of one commit. Each kind
// of operation runs once on a store holding r1 and r2 with the store's
// own seams observing its boundaries — halfway through each journal
// frame, after the journal sync, after each record file is staged, after
// each rename, before the directory sync, at the acknowledgement — and at each boundary the store directory is
// copied as a crash there would leave it. Every copy is then recovered
// and held to what a commit promises across a crash: each record is
// wholly its pre-image or its post-image, never torn and never a third
// thing; a batch survives as a prefix; what the journal folds to, the
// record files and the index agree; no staged file outlives the open;
// pcfsck grades the wreck residue at worst; and opening it a second time
// finds nothing left to do.
func TestCrashPoints(t *testing.T) {
	changed := sampleRecord("r1")
	changed.Duration = 999
	ops := []struct {
		name string
		do   func(st *Store) error
		runs []string // the run ids its mutations touch, in order
	}{
		{"save", func(st *Store) error { return st.Save(sampleRecord("r9")) }, []string{"r9"}},
		{"overwrite", func(st *Store) error { return st.Save(changed) }, []string{"r1"}},
		{"delete", func(st *Store) error { return st.Delete("poisson", "A", "r1") }, []string{"r1"}},
		{"batch of 3", func(st *Store) error {
			_, err := st.PutBatch([]*RunRecord{sampleRecord("r8"), changed, sampleRecord("r9")})
			return err
		}, []string{"r8", "r1", "r9"}},
	}
	explored := 0
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			dir, snaps := t.TempDir(), t.TempDir()
			st := openDurable(t, dir, DurableOptions{})
			for _, run := range []string{"r1", "r2"} {
				if err := st.Save(sampleRecord(run)); err != nil {
					t.Fatal(err)
				}
			}
			// The universe of keys, and each one's bytes (nil: absent) on
			// either side of the operation.
			var keys, muts []RecordKey
			for _, run := range op.runs {
				muts = append(muts, sampleRecord(run).Key())
			}
			for _, run := range []string{"r1", "r2", "r8", "r9"} {
				keys = append(keys, sampleRecord(run).Key())
			}
			image := func() map[RecordKey][]byte {
				m := map[RecordKey][]byte{}
				for _, k := range keys {
					if data, err := st.backend.Get(k); err == nil {
						m[k] = data
					} else if !errors.Is(err, os.ErrNotExist) {
						t.Fatal(err)
					}
				}
				return m
			}
			pre := image()

			var mu sync.Mutex
			var points []string
			crash := func(at string) {
				mu.Lock()
				defer mu.Unlock()
				points = append(points, at)
				copyTree(t, dir, filepath.Join(snaps, fmt.Sprintf("%02d", len(points))))
			}
			fb := st.Backend().(*FSBackend)
			fb.fileSyncHook = func(f *os.File) error { err := f.Sync(); crash("after a stage"); return err }
			st.wal.writeHook = func(f *os.File, frame []byte) (int, error) {
				n, err := f.Write(frame[:len(frame)/2])
				if err != nil {
					return n, err
				}
				crash("inside a journal write")
				m, err := f.Write(frame[n:])
				return n + m, err
			}
			st.wal.syncHook = func(f *os.File) error { err := f.Sync(); crash("after the journal sync"); return err }
			fb.renameHook = func(oldpath, newpath string) error {
				err := os.Rename(oldpath, newpath)
				crash("after a rename")
				return err
			}
			fb.syncHook = func(d string) error { crash("before the directory sync"); return syncDir(d) }
			if err := op.do(st); err != nil {
				t.Fatal(err)
			}
			crash("at the acknowledgement")
			post := image()
			st.Close()

			for i, at := range points {
				snap := filepath.Join(snaps, fmt.Sprintf("%02d", i+1))
				acked := i == len(points)-1
				checkCrashPoint(t, fmt.Sprintf("point %d (%s)", i+1, at), snap, keys, muts, pre, post, acked)
			}
			t.Logf("%-10s %d crash points: %v", op.name, len(points), points)
			explored += len(points)
		})
	}
	t.Logf("explored %d ops × their boundaries = %d crash points", len(ops), explored)
}

// checkCrashPoint recovers one copied store directory and holds it to
// the commit's crash contract. keys is every key the cases know, muts
// the operation's in mutation order; pre and post are the keys' bytes on
// either side of it.
func checkCrashPoint(t *testing.T, at, snap string, keys, muts []RecordKey, pre, post map[RecordKey][]byte, acked bool) {
	t.Helper()
	rep, err := FsckStore(snap, false)
	if err != nil || rep.Severity() > FsckResidue {
		t.Errorf("%s: pcfsck grades the wreck %d (%v): %+v", at, rep.Severity(), err, rep.Findings)
	}
	entries, _, err := ReadWAL(walDirOf(snap))
	if err != nil {
		t.Fatalf("%s: journal: %v", at, err)
	}
	fold := WALFold(entries)

	st, err := OpenStoreDurable(snap, DurableOptions{WAL: true})
	if err != nil {
		t.Fatalf("%s: reopen: %v", at, err)
	}
	if q := st.Recovery().Quarantined; len(q) != 0 {
		t.Errorf("%s: reopen quarantined %v", at, q)
	}
	files, present := map[RecordKey][]byte{}, 0
	for _, k := range keys {
		data, err := st.backend.Get(k)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: %v", at, err)
		}
		files[k] = data
		if data != nil {
			present++
		}
		isPre, isPost := bytes.Equal(data, pre[k]), bytes.Equal(data, post[k])
		if !isPre && !isPost {
			t.Errorf("%s: %s is neither its pre-image nor its post-image (%d bytes)", at, k, len(data))
		}
		if acked && !isPost {
			t.Errorf("%s: %s is not its post-image, and the operation was acknowledged", at, k)
		}
		// The index serves what the file holds.
		rec, err := st.Load(k.App, k.Version, k.RunID)
		switch {
		case data == nil && !errors.Is(err, os.ErrNotExist):
			t.Errorf("%s: %s has no file, yet the index answers %v", at, k, err)
		case data != nil && (err != nil || !bytes.Equal(StoredEntry(rec).Data, data)):
			t.Errorf("%s: the index's %s is not the file's (%v)", at, k, err)
		}
	}
	for i, k := range muts[1:] {
		if before := muts[i]; !bytes.Equal(files[before], post[before]) && !bytes.Equal(files[k], pre[k]) {
			t.Errorf("%s: %s survived and %s, ahead of it in the batch, did not", at, k, before)
		}
	}
	if got := st.Len(); got != present {
		t.Errorf("%s: index holds %d records, the files %d", at, got, present)
	}
	for k, e := range fold {
		if e.Op == WALOpPut && !bytes.Equal(files[k], e.Data) || e.Op == WALOpDelete && files[k] != nil {
			t.Errorf("%s: the journal folds %s to a %s the files do not reflect", at, k, e.Op)
		}
	}
	if tmps, _ := filepath.Glob(filepath.Join(snap, ".put-*.tmp")); len(tmps) != 0 {
		t.Errorf("%s: staged files survived the open: %v", at, tmps)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery is idempotent: a second open has nothing to do and finds
	// the same records, and the store it leaves is clean.
	st2, err := OpenStoreDurable(snap, DurableOptions{WAL: true})
	if err != nil {
		t.Fatalf("%s: second reopen: %v", at, err)
	}
	if r := st2.Recovery(); len(r.SweptTemp) != 0 || len(r.Quarantined) != 0 || len(r.Renamed) != 0 || !r.WAL.Empty() {
		t.Errorf("%s: second reopen still found work: %+v, journal %+v", at, r, r.WAL)
	}
	for _, k := range keys {
		if data, _ := st2.backend.Get(k); !bytes.Equal(data, files[k]) {
			t.Errorf("%s: %s changed across the second reopen", at, k)
		}
	}
	st2.Close()
	if rep, err := FsckStore(snap, false); err != nil || rep.Severity() != FsckClean {
		t.Errorf("%s: the recovered store grades %d (%v): %+v", at, rep.Severity(), err, rep.Findings)
	}
}
