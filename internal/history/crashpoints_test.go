package history

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
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
// fsys observing its boundaries — halfway through each journal frame,
// after the journal sync, after each record file is staged, after each
// rename, before the directory sync, at the acknowledgement, and where
// the journal rotates: after the next segment is created and after the
// closed one is discarded, in the commit or, made ahead of it, between
// commits — so some images hold an empty segment made ahead beside the
// active one. At each boundary two images of the store are
// kept: the directory copied as the death of the process there would
// leave it, and what a power loss would — each file's bytes as of its
// last sync, each directory's entries as of its last sync. Every image
// is then recovered and held to what a commit promises across a crash:
// each record is wholly its pre-image or its post-image, never torn and
// never a third thing; a batch survives as a prefix; what the journal
// folds to, the record files and the index agree; no staged file
// outlives the open; pcfsck grades the wreck residue at worst, and what
// it grades is what the open does; and opening it a second time finds
// nothing left to do.
func TestCrashPoints(t *testing.T) {
	changed := sampleRecord("r1")
	changed.Duration = 999
	batch := func(st *Store) error {
		_, err := st.PutBatch([]*RunRecord{sampleRecord("r8"), changed, sampleRecord("r9")})
		return err
	}
	type crashOp struct {
		name    string
		segment int64 // the journal's segment size for the operation; 0 for the default
		ahead   bool  // the segment the operation rotates to is made ahead of it
		do      func(st *Store) error
		runs    []string // the run ids its mutations touch, in order
		spares  bool     // the store holds spares when the operation starts
	}
	ops := []crashOp{
		{"save", 0, false, func(st *Store) error { return st.Save(sampleRecord("r9")) }, []string{"r9"}, false},
		{"overwrite", 0, false, func(st *Store) error { return st.Save(changed) }, []string{"r1"}, false},
		{"delete", 0, false, func(st *Store) error { return st.Delete("poisson", "A", "r1") }, []string{"r1"}, false},
		{"batch of 3", 0, false, batch, []string{"r8", "r1", "r9"}, false},
		// Segments too small for two frames: the group rotates the journal,
		// creating the next segment itself or switching to one made ahead.
		{"batch across a rotation", 64, false, batch, []string{"r8", "r1", "r9"}, false},
		{"batch into a segment made ahead", 64, true, batch, []string{"r8", "r1", "r9"}, false},
	}
	// Each again on a store that holds spares: its files are staged into
	// them, and a crash leaves the rest behind for the open to sweep.
	for _, op := range ops {
		op.name, op.spares = op.name+" over spares", true
		ops = append(ops, op)
	}
	modes := []struct{ name, dir string }{{"process death", "death"}, {"power loss", "power"}}
	explored, graded, done := map[string]int{}, map[string]int{}, map[string]int{}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			dir, snaps := t.TempDir(), t.TempDir()
			st := openDurable(t, dir, DurableOptions{})
			// Recorded from here, so a power loss also forgets what the
			// setup left unsynced: the rotation case discards its segment.
			fs := newTestFS(t, dir)
			fb := st.Backend().(*FSBackend)
			fs.install(fb, st.wal)
			for _, run := range []string{"r1", "r2"} {
				if err := st.Save(sampleRecord(run)); err != nil {
					t.Fatal(err)
				}
			}
			// The set-up's commits filled the pool: at least half of it is
			// left once its burst is over. Without spares it is closed, and
			// the operation creates its files.
			if n := spareCount(fb); n < spareFiles/2 {
				t.Fatalf("the pool holds %d spares, want at least %d", n, spareFiles/2)
			}
			if !op.spares {
				fb.closeSpares()
			}
			if op.segment > 0 {
				st.wal.opts.SegmentBytes = op.segment
				if op.ahead && (!st.wal.makeAhead() || st.wal.next == nil) {
					t.Fatal("no segment made ahead")
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

			// crash runs inside the fsys's hooks (one at a time) or once
			// the operation is over.
			var points []string
			crash := func(at string) {
				points = append(points, at)
				snap := filepath.Join(snaps, fmt.Sprintf("%02d", len(points)))
				copyTree(t, dir, filepath.Join(snap, modes[0].dir))
				if err := fs.durableImage(filepath.Join(snap, modes[1].dir)); err != nil {
					t.Fatal(err)
				}
			}
			fs.before = func(o fsOp) error {
				switch {
				case o.kind == "write" && isSegment(o.path):
					crash("inside a journal write")
				case o.kind == "syncdir" && o.path == dir:
					crash("before the directory sync")
				}
				return nil
			}
			fs.after = func(o fsOp) {
				switch {
				case o.kind == "sync" && isSegment(o.path):
					crash("after the journal sync")
				case o.kind == "sync":
					crash("after a stage")
				case o.kind == "rename":
					crash("after a rename")
				case o.kind == "create" && isSegment(o.path):
					crash("after a segment is created")
				case o.kind == "remove" && isSegment(o.path):
					crash("after a rotation discards a segment")
				}
			}
			if err := op.do(st); err != nil {
				t.Fatal(err)
			}
			fb.spares.settle() // a burst the commit's end started makes no call amid the image
			crash("at the acknowledgement")
			fs.before, fs.after = nil, nil
			if left, _ := filepath.Glob(filepath.Join(dir, ".put-*.tmp")); op.spares != (len(left) > 0) {
				t.Errorf("spares %t, yet the acknowledged store holds %d", op.spares, len(left))
			}
			post := image()
			st.Close()

			for _, mode := range modes {
				t.Run(mode.name, func(t *testing.T) {
					for i, at := range points {
						snap := filepath.Join(snaps, fmt.Sprintf("%02d", i+1), mode.dir)
						acked := i == len(points)-1
						g, d := checkCrashPoint(t, fmt.Sprintf("point %d (%s)", i+1, at), snap, keys, muts, pre, post, acked)
						graded[mode.name] += g
						done[mode.name] += d
					}
					t.Logf("%-23s %-13s %2d crash points: %v", op.name, mode.name, len(points), points)
				})
				explored[mode.name] += len(points)
			}
		})
	}
	for _, mode := range modes {
		t.Logf("%-13s explored %d ops × their boundaries = %d crash points; pcfsck graded %d repairs, the opens made %d",
			mode.name, len(ops), explored[mode.name], graded[mode.name], done[mode.name])
	}
}

// checkCrashPoint recovers one copied store directory and holds it to
// the commit's crash contract. keys is every key the cases know, muts
// the operation's in mutation order; pre and post are the keys' bytes on
// either side of it. It returns how many repairs pcfsck graded before the
// open and how many the open made.
func checkCrashPoint(t *testing.T, at, snap string, keys, muts []RecordKey, pre, post map[RecordKey][]byte, acked bool) (graded, done int) {
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
	graded, done = crossCheck(t, at, rep, st.Recovery())
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
	return graded, done
}

// crossCheck holds what pcfsck graded before an open to what the open
// reports doing: the same temp files swept, records renamed and files
// quarantined, and as many journal entries replayed. It returns how many
// repairs each side names.
func crossCheck(t *testing.T, at string, grade *FsckReport, rep *RecoveryReport) (graded, done int) {
	t.Helper()
	var want, got [3][]string // swept, renamed, quarantined
	replay := 0
	for _, f := range grade.Findings {
		switch {
		case f.Repair == repairRemove && strings.HasSuffix(f.Path, ".tmp"):
			want[0] = append(want[0], filepath.ToSlash(f.Path))
		case strings.HasPrefix(f.Repair, "rename to "):
			want[1] = append(want[1], f.Path)
		case f.Repair == repairQuarantine:
			want[2] = append(want[2], f.Path)
		case f.Repair == repairReplay:
			replay++
		}
	}
	got[0] = rep.SweptTemp
	for _, r := range rep.Renamed {
		got[1] = append(got[1], r.From)
	}
	for _, q := range rep.Quarantined {
		got[2] = append(got[2], q.Name)
	}
	replayed := 0
	if rep.WAL != nil {
		replayed = rep.WAL.Replayed
	}
	for i, what := range []string{"swept", "renamed", "quarantined"} {
		slices.Sort(want[i])
		slices.Sort(got[i])
		if !slices.Equal(want[i], got[i]) {
			t.Errorf("%s: pcfsck graded %v to be %s, the open %s %v", at, want[i], what, what, got[i])
		}
		graded += len(want[i])
		done += len(got[i])
	}
	if replay != replayed {
		t.Errorf("%s: pcfsck graded %d journal entries to replay, the open replayed %d", at, replay, replayed)
	}
	return graded + replay, done + replayed
}
