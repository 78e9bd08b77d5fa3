package history

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// randomStoreDir fills dir with what crashes, older builds and damage
// leave in a store directory, drawn from rng: records under their key's
// name, valid copies under other names (stray ones, or another key's),
// undecodable files under a key's name or a stray one, every writer's
// temp files, and — most of the time — a journal of puts and deletes over
// keys present, absent and broken, in one or two segments, sometimes
// with a torn tail or a bad frame ahead of it, and a promoted replication
// state whose epoch may lag the journal's.
func randomStoreDir(t *testing.T, rng *rand.Rand, dir string) {
	t.Helper()
	write := func(rel string, data []byte) {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	record := func() *RunRecord {
		rec := sampleRecord(fmt.Sprintf("r%d", rng.Intn(6)))
		rec.Duration = float64(100 + rng.Intn(3))
		return rec
	}
	torn := func(rec *RunRecord) []byte {
		data := EncodeRecord(rec)
		return data[:rng.Intn(len(data)-1)]
	}
	for run := 0; run < 6; run++ {
		rec := sampleRecord(fmt.Sprintf("r%d", run))
		switch rng.Intn(4) {
		case 1, 2:
			write(fileName(rec.Key()), EncodeRecord(rec))
		case 3:
			write(fileName(rec.Key()), torn(rec))
		}
	}
	for i := rng.Intn(3); i > 0; i-- {
		name := fmt.Sprintf("legacy%d.json", i)
		if rng.Intn(2) == 0 {
			name = fileName(record().Key())
		}
		if _, err := os.Stat(filepath.Join(dir, name)); os.IsNotExist(err) {
			write(name, EncodeRecord(record()))
		}
	}
	for i := rng.Intn(2); i > 0; i-- {
		write(fmt.Sprintf("stray%d.json", i), torn(record()))
	}
	for _, w := range tempFiles {
		if w[0] != ShardsDirName && rng.Intn(4) == 0 {
			write(w[0]+"/"+w[1]+"7.tmp", []byte("half a file"))
		}
	}
	if rng.Intn(4) == 0 {
		return // a store written before the journal existed
	}
	var segs [][]byte
	for i := rng.Intn(9); i >= 0; i-- {
		e := WALEntry{Op: walOpDelete}
		if rng.Intn(3) > 0 {
			e = StoredEntry(record())
		} else {
			k := record().Key()
			e.App, e.Version, e.RunID = k.App, k.Version, k.RunID
		}
		frame, err := EncodeWALFrame(e)
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) == 0 || rng.Intn(4) == 0 {
			segs = append(segs, nil)
		}
		segs[len(segs)-1] = append(segs[len(segs)-1], frame...)
	}
	if len(segs) > 1 && rng.Intn(4) == 0 {
		segs[0][len(segs[0])-1] ^= 0xFF // a bad frame ahead of the tail
	}
	if rng.Intn(3) == 0 {
		segs[len(segs)-1] = append(segs[len(segs)-1], 0, 0, 0) // a torn final frame
	}
	for i, seg := range segs {
		write(fmt.Sprintf("%s/%08d%s", WALDirName, i+1, walSuffix), seg)
	}
	write(WALDirName+"/"+walEpochName, []byte("3\n"))
	if rng.Intn(4) == 0 {
		write("replica/STATE.json", []byte(fmt.Sprintf(`{"version": 2, "epoch": %d, "promoted": true}`, 2+rng.Intn(2))))
	}
}

// openClose opens the store at dir as pcfsck -repair does — with the
// journal when there is one — and closes it, returning what the open
// reported doing.
func openClose(t *testing.T, dir string) *RecoveryReport {
	t.Helper()
	st, err := OpenStoreDurable(dir, DurableOptions{WAL: hasJournal(dir)})
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return st.Recovery()
}

// recordFiles reads the record files at the top of a store directory.
func recordFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, _, err := fsBackendAt(dir).Scan()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		out[e.Name] = e.Data
	}
	return out
}

// TestRecoveryLaws holds the open, pcfsck and pcfsck -repair to one
// recovery plan over random store directories:
//   - a finding is corrupt exactly when the open quarantines the file as
//     damaged (a shadowed duplicate is quarantined as residue), or it is a
//     bad frame ahead of the journal's tail — and every other repair
//     graded is one the open makes (crossCheck);
//   - after one open and close pcfsck grades the store clean, and a second
//     open finds nothing to do;
//   - pcfsck -repair leaves the record files an open leaves;
//   - the fold pcfsck -primary compares is what the open serves: the
//     unopened directory against an opened copy is clean, as are two
//     opened copies.
func TestRecoveryLaws(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 100
	}
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < n; i++ {
		at := fmt.Sprintf("directory %d", i)
		orig := t.TempDir()
		randomStoreDir(t, rng, orig)
		opened, repaired, again := t.TempDir(), t.TempDir(), t.TempDir()
		for _, dst := range []string{opened, repaired, again} {
			copyTree(t, orig, dst)
		}
		grade, err := FsckStore(orig, false)
		if err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		rep := openClose(t, opened)

		crossCheck(t, at, grade, rep)
		damaged := map[string]bool{}
		for _, q := range rep.Quarantined {
			damaged[q.Name] = !strings.HasPrefix(q.Reason, "shadowed duplicate")
		}
		badFrames := 0
		for _, f := range grade.Findings {
			switch {
			case f.Severity == FsckCorrupt && strings.HasPrefix(f.Path, WALDirName):
				badFrames++
			case (f.Severity == FsckCorrupt) != damaged[f.Path]:
				t.Errorf("%s: %s graded %d, quarantined as damaged: %v", at, f.Path, f.Severity, damaged[f.Path])
			}
		}
		if rep.WAL != nil && badFrames != len(rep.WAL.Corrupt) {
			t.Errorf("%s: %d bad frames graded corrupt, the open found %v", at, badFrames, rep.WAL.Corrupt)
		}

		if after, err := FsckStore(opened, false); err != nil || after.Severity() != FsckClean {
			t.Errorf("%s: after one open pcfsck grades %d (%v): %+v", at, after.Severity(), err, after.Findings)
		}
		if rep := openClose(t, opened); !rep.Empty() {
			t.Errorf("%s: a second open still found work: %+v, journal %+v", at, rep, rep.WAL)
		}

		if _, err := FsckStore(repaired, true); err != nil {
			t.Fatalf("%s: repair: %v", at, err)
		}
		want, got := recordFiles(t, opened), recordFiles(t, repaired)
		if len(got) != len(want) {
			t.Errorf("%s: repair left %d record files, the open %d", at, len(got), len(want))
		}
		for name, data := range want {
			if !bytes.Equal(got[name], data) {
				t.Errorf("%s: repair left %s other than the open did", at, name)
			}
		}

		openClose(t, again)
		for _, pair := range [][2]string{{orig, opened}, {again, opened}} {
			if rep, err := FsckReplica(pair[0], pair[1]); err != nil || rep.Severity() != FsckClean {
				t.Errorf("%s: the folds of %s and %s differ (%v): %+v", at, pair[0], pair[1], err, rep.Findings)
			}
		}
		if t.Failed() {
			t.Fatalf("%s (seed 28) breaks a law", at)
		}
	}
}
