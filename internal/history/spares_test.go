package history

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// spareCount waits out b's running burst and returns how many spares
// its pool holds.
func spareCount(b *FSBackend) int {
	b.spares.settle()
	b.spares.mu.Lock()
	defer b.spares.mu.Unlock()
	return len(b.spares.free)
}

// quiesce waits out st's running burst of spares, so that no call of
// st's is in flight until its next commit: a test may then swap or hook
// its fsys, or treat st as a killed process's store, whose spares stay
// behind for the next open to sweep.
func quiesce(st *Store) { st.fsBackend().spares.settle() }

// batchOf is n sample records named prefix0, prefix1, ...
func batchOf(prefix string, n int) []*RunRecord {
	recs := make([]*RunRecord, n)
	for i := range recs {
		recs[i] = sampleRecord(fmt.Sprintf("%s%d", prefix, i))
	}
	return recs
}

// commitCalls counts, by kind, the calls fs sees from the next commit's
// start to the directory sync of fb's — the commit's own, on its own
// goroutines: the burst its end may start comes after.
func commitCalls(fs *testFS, fb *FSBackend, commit func()) map[string]int {
	calls, done := map[string]int{}, false
	fs.before = func(op fsOp) error {
		if !done {
			calls[op.kind]++
		}
		done = done || op.kind == "syncdir" && op.path == fb.dir
		return nil
	}
	commit()
	fb.spares.settle()
	fs.before = nil
	return calls
}

// TestSparesStageWithoutCreate: once the pool is filled, a commit of up
// to a pool's worth of puts creates no file — each record is staged
// into a spare, reopened — and its records land as a create would have
// written them. A journaled store's first commit fills the pool; a
// store without a journal has none.
func TestSparesStageWithoutCreate(t *testing.T) {
	for k := 1; k <= spareFiles; k++ {
		dir := t.TempDir()
		fs := newTestFS(t, dir)
		st := openDurable(t, dir, DurableOptions{Faults: func(int) *Faults { return fs.Faults }})
		fb := st.Backend().(*FSBackend)
		if n := spareCount(fb); n != 0 {
			t.Fatalf("a store just opened holds %d spares, want none", n)
		}
		if err := st.Save(sampleRecord("first")); err != nil {
			t.Fatal(err)
		}
		if n := spareCount(fb); n != spareFiles {
			t.Fatalf("after the first commit the pool holds %d spares, want %d", n, spareFiles)
		}
		recs := batchOf("r", k)
		calls := commitCalls(fs, fb, func() {
			if n, err := st.PutBatch(recs); n != k || err != nil {
				t.Fatalf("PutBatch = %d, %v", n, err)
			}
		})
		if calls["createtemp"]+calls["create"] != 0 || calls["open"] != k {
			t.Errorf("k=%d: the commit made %d calls %v; want %d opens and no create", k, len(calls), calls, k)
		}
		for _, rec := range recs {
			if data, err := fb.Get(rec.Key()); err != nil || !bytes.Equal(data, EncodeRecord(rec)) {
				t.Errorf("k=%d: %s's file holds %d bytes (%v), want its encoding", k, rec.Key(), len(data), err)
			}
		}
		if tmps := tempsIn(t, dir); len(tmps) != 0 {
			t.Errorf("k=%d: staged files left: %v", k, tmps)
		}
	}

	plain, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Save(sampleRecord("r1")); err != nil {
		t.Fatal(err)
	}
	if fb := plain.Backend().(*FSBackend); fb.spares != nil {
		t.Error("a store without a journal keeps a pool of spares")
	}
}

// TestSparesFallBackWhenDrained: a commit with more puts than the pool
// holds stages the rest into files it creates, and every record lands.
func TestSparesFallBackWhenDrained(t *testing.T) {
	dir := t.TempDir()
	fs := newTestFS(t, dir)
	st := openDurable(t, dir, DurableOptions{Faults: func(int) *Faults { return fs.Faults }})
	fb := st.Backend().(*FSBackend)
	if err := st.Save(sampleRecord("first")); err != nil {
		t.Fatal(err)
	}
	if n := spareCount(fb); n != spareFiles {
		t.Fatalf("pool holds %d spares, want %d", n, spareFiles)
	}
	recs := batchOf("r", spareFiles+3)
	calls := commitCalls(fs, fb, func() {
		if n, err := st.PutBatch(recs); n != len(recs) || err != nil {
			t.Fatalf("PutBatch = %d, %v", n, err)
		}
	})
	if calls["open"] != spareFiles || calls["createtemp"] != 3 {
		t.Errorf("the commit made %v; want %d opens and 3 creates", calls, spareFiles)
	}
	for _, rec := range recs {
		if data, err := fb.Get(rec.Key()); err != nil || !bytes.Equal(data, EncodeRecord(rec)) {
			t.Errorf("%s's file holds %d bytes (%v), want its encoding", rec.Key(), len(data), err)
		}
	}
	if tmps := tempsIn(t, dir); len(tmps) != 0 {
		t.Errorf("staged files left: %v", tmps)
	}
	if n := spareCount(fb); n != spareFiles {
		t.Errorf("the drained pool refilled to %d spares, want %d", n, spareFiles)
	}
}

// TestCloseRemovesSpares: Close leaves no spare — also when it lands
// while the burst's first create is in flight, held there until after
// Close began, or before the burst made any — and the store it leaves
// grades clean; a closed store makes no spare.
func TestCloseRemovesSpares(t *testing.T) {
	for i := range 10 {
		dir := t.TempDir()
		fs := newTestFS(t, dir)
		var made atomic.Int32 // record files created
		inFlight := make(chan struct{}, 1)
		fs.after = func(op fsOp) {
			// The commit's own file is the first, the burst's the second.
			if op.kind == "createtemp" && filepath.Dir(op.path) == dir && made.Add(1) == 2 {
				inFlight <- struct{}{}
				time.Sleep(2 * time.Millisecond)
			}
		}
		st := openDurable(t, dir, DurableOptions{Faults: func(int) *Faults { return fs.Faults }})
		if err := st.Save(sampleRecord("r1")); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			<-inFlight
		}
		// The pool's half of Close, checked before the journal's: its sync
		// waits on the injector the held create holds.
		st.fsBackend().closeSpares()
		if tmps, _ := filepath.Glob(filepath.Join(dir, ".put-*.tmp")); len(tmps) != 0 {
			t.Fatalf("round %d: closing the pool left %v", i, tmps)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if tmps, _ := filepath.Glob(filepath.Join(dir, ".put-*.tmp")); len(tmps) != 0 {
			t.Fatalf("round %d: Close left %v", i, tmps)
		}
		if rep, err := FsckStore(dir, false); err != nil || rep.Severity() != FsckClean {
			t.Fatalf("round %d: the closed store grades %d (%v): %+v", i, rep.Severity(), err, rep.Findings)
		}
		before := made.Load()
		if err := st.Save(sampleRecord("r2")); err == nil {
			t.Fatal("a closed journaled store took a write")
		}
		p := st.fsBackend().spares
		p.mu.Lock()
		burst := p.fill != nil
		p.mu.Unlock()
		if made.Load() != before+1 || burst {
			t.Errorf("round %d: a closed store made %d files for one refused write, and started a burst: %t", i, made.Load()-before, burst)
		}
		if tmps, _ := filepath.Glob(filepath.Join(dir, ".put-*.tmp")); len(tmps) != 0 {
			t.Fatalf("round %d: a closed store made spares: %v", i, tmps)
		}
	}
}

// gatedGet is a backend whose reads a test can hold up.
type gatedGet struct {
	Backend
	onGet func(key RecordKey)
}

func (g *gatedGet) Get(key RecordKey) ([]byte, error) {
	g.onGet(key)
	return g.Backend.Get(key)
}

func (g *gatedGet) Inner() Backend { return g.Backend }

// TestReplicaSnapshotShipsFileBytes: a snapshot ships each clean record
// file's own bytes — one read, no encode — and the record encoded, the
// same bytes, for a file rewritten or removed behind the store; and it
// reads the files after letting go of the journal lock, so a commit
// issued during the reads is not held up by them.
func TestReplicaSnapshotShipsFileBytes(t *testing.T) {
	var reads atomic.Int32
	var during func()
	gate := &gatedGet{onGet: func(RecordKey) {
		reads.Add(1)
		if during != nil {
			f := during
			during = nil
			f()
		}
	}}
	st := openDurable(t, t.TempDir(), DurableOptions{Wrap: func(b Backend) Backend { gate.Backend = b; return gate }})
	recs := batchOf("r", 4)
	if _, err := st.PutBatch(recs); err != nil {
		t.Fatal(err)
	}
	files := map[RecordKey][]byte{}
	for _, rec := range recs {
		files[rec.Key()] = EncodeRecord(rec)
	}
	// Each index entry's record is swapped for one that encodes
	// differently: only the file's own bytes can be shipped.
	st.mu.Lock()
	for k, ent := range st.recs {
		other := *ent.rec
		other.Duration++
		ent.rec = &other
		st.recs[k] = ent
	}
	st.mu.Unlock()
	reads.Store(0)
	_, _, entries, err := st.ReplicaSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if n := reads.Load(); n != int32(len(recs)) {
		t.Errorf("the snapshot read %d files, want one per record (%d)", n, len(recs))
	}
	for _, e := range entries {
		if !bytes.Equal(e.Data, files[e.Key()]) {
			t.Errorf("%s: the snapshot encoded the record instead of shipping its clean file", e.Key())
		}
	}

	// Rewritten in another spelling, and removed, behind the store.
	rewritten, removed := recs[1].Key(), recs[2].Key()
	if err := os.WriteFile(filepath.Join(st.Dir(), fileName(rewritten)), []byte(`{"app":"x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(st.Dir(), fileName(removed))); err != nil {
		t.Fatal(err)
	}
	// A commit issued while the snapshot reads its first file lands
	// before that read returns.
	landed := make(chan error, 1)
	during = func() {
		go func() { landed <- st.Save(sampleRecord("during")) }()
		select {
		case err := <-landed:
			if err != nil {
				t.Errorf("the commit during the snapshot: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("a commit issued during the snapshot's reads waited for them")
		}
	}
	_, seq, entries, err := st.ReplicaSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(recs) {
		t.Errorf("the snapshot at seq %d holds %d entries, want the %d before the commit during it", seq, len(entries), len(recs))
	}
	for _, e := range entries {
		rec, _ := st.Load(e.App, e.Version, e.RunID)
		want := files[e.Key()]
		if e.Key() == rewritten || e.Key() == removed {
			want = EncodeRecord(rec)
		}
		if !bytes.Equal(e.Data, want) {
			t.Errorf("%s: shipped %d bytes, want %d", e.Key(), len(e.Data), len(want))
		}
	}
}
