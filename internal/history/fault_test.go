package history

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"syscall"
	"testing"
)

// faultedStore opens (creating) a journaled store in dir writing through
// an injector of cfg, installed and armed as pcd -fault-* arms one, at
// SyncNone: durability is not what these tests are about.
func faultedStore(t *testing.T, dir string, cfg FaultConfig) (*Store, *Faults) {
	t.Helper()
	faults := NewFaults(cfg)
	st := openDurable(t, dir, DurableOptions{
		WALOptions: WALOptions{Sync: SyncNone},
		Faults:     func(int) *Faults { return faults },
	})
	t.Cleanup(func() { st.Close() })
	return st, faults
}

// tempsIn lists the staged files left in a store's record directory:
// the temp files that hold bytes. An empty one is a spare, made ahead of
// a commit's need (sparePool).
func tempsIn(t *testing.T, dir string) []string {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, ".put-*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	return slices.DeleteFunc(tmps, func(tmp string) bool {
		fi, err := os.Stat(tmp)
		return err != nil || fi.Size() == 0
	})
}

// TestFaultsDeterministic proves two injectors with the same seed inject
// the same faults into the same writes — in two stores in different
// directories, since a draw names a path below its store — which every
// chaos test's reproducibility rests on, and that another seed does not.
func TestFaultsDeterministic(t *testing.T) {
	schedule := func(seed int64) ([]bool, FaultCounters) {
		st, faults := faultedStore(t, t.TempDir(), FaultConfig{Seed: seed, ErrRate: 0.1, TornWriteRate: 0.05})
		outcomes := make([]bool, 0, 100)
		for i := 0; i < 100; i++ {
			outcomes = append(outcomes, st.Save(sampleRecord(fmt.Sprintf("r%d", i))) != nil)
		}
		return outcomes, faults.Counters()
	}
	a, ca := schedule(7)
	b, cb := schedule(7)
	if !slices.Equal(a, b) || ca != cb {
		t.Fatalf("one seed, two schedules:\n%v %+v\n%v %+v", a, ca, b, cb)
	}
	if failed := strings.Count(fmt.Sprint(a), "true"); failed == 0 || failed == len(a) {
		t.Fatalf("%d of %d saves failed; the injector looks broken", failed, len(a))
	}
	if c, _ := schedule(8); slices.Equal(a, c) {
		t.Error("seeds 7 and 8 drew the same schedule")
	}
}

// TestFaultsClassification proves injected failures carry the
// classification the resilience layers dispatch on — ErrInjected,
// BackendError, IsTransient, and ENOSPC when configured — on every way a
// store reaches the disk, and that a genuine miss through the injector
// stays a definitive answer.
func TestFaultsClassification(t *testing.T) {
	st, faults := faultedStore(t, t.TempDir(), FaultConfig{Seed: 1})
	if err := st.Save(sampleRecord("kept")); err != nil {
		t.Fatal(err)
	}
	faults.SetConfig(FaultConfig{ErrRate: 1})
	for name, err := range map[string]error{
		"save":   st.Save(sampleRecord("new")),
		"delete": st.Delete("poisson", "A", "kept"),
		"ping":   st.Ping(),
	} {
		if !errors.Is(err, ErrInjected) {
			t.Errorf("%s error %v does not wrap ErrInjected", name, err)
		}
		if !IsBackendError(err) {
			t.Errorf("%s error %v is not a BackendError", name, err)
		}
		if !IsTransient(err) {
			t.Errorf("%s error %v not classified transient", name, err)
		}
	}
	if c := faults.Counters(); c.Injected == 0 || c.Ops < c.Injected {
		t.Errorf("counters = %+v, want injections among the calls drawn for", c)
	}

	full, fullFaults := faultedStore(t, t.TempDir(), FaultConfig{Seed: 1, ENOSPCRate: 1})
	err := full.Save(sampleRecord("r"))
	if !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, ErrInjected) || !IsBackendError(err) {
		t.Errorf("ENOSPC injection = %v, want a backend error wrapping both ENOSPC and ErrInjected", err)
	}
	if c := fullFaults.Counters(); c.ENOSPC == 0 {
		t.Errorf("counters = %+v, want ENOSPC counted", c)
	}

	// A genuine miss through the injector stays a definitive answer.
	clean, _ := faultedStore(t, t.TempDir(), FaultConfig{Seed: 1})
	if _, err := clean.Load("a", "", "missing"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Load(missing) through the injector = %v", err)
	} else if IsTransient(err) {
		t.Error("a backend miss must not be transient")
	}
}

// TestFaultsTornWrite proves a torn write lands exactly the first half
// of its bytes and fails — and that a torn journal frame is taken back:
// the refused write leaves the segment, the record directory and the
// index as they were.
func TestFaultsTornWrite(t *testing.T) {
	dir := t.TempDir()
	faults := NewFaults(FaultConfig{Seed: 3, TornWriteRate: 1})
	faults.arm(dir)
	f, err := faults.CreateExcl(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(`{"app":"a","run_id":"r","duration":100}`)
	n, err := f.Write(data)
	f.Close()
	if !errors.Is(err, ErrInjected) || n != len(data)/2 {
		t.Fatalf("torn Write = %d, %v; want %d bytes and an injected failure", n, err, len(data)/2)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, "f")); string(got) != string(data[:len(data)/2]) {
		t.Fatalf("torn write left %q, want the first half", got)
	}
	if c := faults.Counters(); c.TornWrites != 1 {
		t.Errorf("counters = %+v, want 1 torn write", c)
	}

	sdir := t.TempDir()
	st, faults := faultedStore(t, sdir, FaultConfig{Seed: 3})
	if err := st.Save(sampleRecord("r1")); err != nil {
		t.Fatal(err)
	}
	size := st.wal.size
	faults.SetConfig(FaultConfig{TornWriteRate: 1})
	if err := st.Save(sampleRecord("r2")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Save with a torn frame = %v, want an injected failure", err)
	}
	if fi, err := os.Stat(st.wal.segmentPath(st.wal.seq)); err != nil || fi.Size() != size {
		t.Errorf("segment after a torn frame: %v, %v; want %d bytes", fi, err, size)
	}
	if st.Len() != 1 || len(tempsIn(t, sdir)) != 0 {
		t.Errorf("a torn write left %d records indexed and staged files %v", st.Len(), tempsIn(t, sdir))
	}
}

// TestFaultsSetConfig proves an outage can start and heal at runtime,
// as the chaos tests stage it.
func TestFaultsSetConfig(t *testing.T) {
	st, faults := faultedStore(t, t.TempDir(), FaultConfig{Seed: 1})
	if err := st.Save(sampleRecord("r1")); err != nil {
		t.Fatalf("healthy Save = %v", err)
	}
	faults.SetConfig(FaultConfig{ErrRate: 1})
	if err := st.Save(sampleRecord("r2")); !errors.Is(err, ErrInjected) {
		t.Fatalf("outage Save = %v, want injected failure", err)
	}
	faults.SetConfig(FaultConfig{})
	if err := st.Save(sampleRecord("r2")); err != nil {
		t.Fatalf("healed Save = %v", err)
	}
}

// TestFaultsKeyedUnderConcurrency: the schedule depends on the seed, not
// on goroutine timing, nor on whether a commit's files are spares or
// created for it. The same PutBatch calls, each staging more records than
// there are stagers and one more than a pool of spares holds, run three
// times per seed — twice with the pool closed, once with spares made
// before each batch — and the faults fired — (call, stable name, n) — are
// the same every time, as are the outcomes. Under -race this also holds
// the injector's locking.
func TestFaultsKeyedUnderConcurrency(t *testing.T) {
	run := func(seed int64, spares bool) (fired, outcomes []string) {
		dir := t.TempDir()
		fs := newTestFS(t, dir)
		st := openDurable(t, dir, DurableOptions{
			WALOptions: WALOptions{Sync: SyncNone},
			Faults:     func(int) *Faults { return fs.Faults },
		})
		defer st.Close()
		if !spares {
			st.fsBackend().closeSpares()
		}
		fs.cfg.Seed = seed // SetConfig keeps the injector's seed
		fs.SetConfig(FaultConfig{ErrRate: 0.03, TornWriteRate: 0.03, ENOSPCRate: 0.01})
		for b := 0; b < 6; b++ {
			if n := spareCount(st.fsBackend()); spares && b > 0 && n == 0 {
				t.Fatalf("seed %d: no spare made before batch %d", seed, b)
			}
			n, err := st.PutBatch(batchOf(fmt.Sprintf("b%d-r", b), max(2*stageWorkers, spareFiles)+1))
			outcomes = append(outcomes, fmt.Sprintf("%d %t", n, err != nil))
		}
		fired = slices.Clone(fs.fired)
		slices.Sort(fired)
		return fired, outcomes
	}
	for _, seed := range []int64{1, 2, 3} {
		fired, outcomes := run(seed, false)
		if len(fired) == 0 {
			t.Errorf("seed %d: no fault fired; the schedule proves nothing", seed)
		}
		for _, spares := range []bool{false, true} {
			again, outcomesAgain := run(seed, spares)
			if !reflect.DeepEqual(fired, again) || !slices.Equal(outcomes, outcomesAgain) {
				t.Errorf("seed %d, spares %t: two runs drew differently:\n%v %v\n%v %v", seed, spares, fired, outcomes, again, outcomesAgain)
			}
		}
	}
}

// TestFaultsSameWithSegmentsMadeAhead: a journal segment is drawn for by
// its name whether it was made ahead of the commit that rotates to it or
// created in that commit, so a seeded schedule of torn writes — record
// files and journal frames, the frames of rotating groups among them —
// fires the same faults, with the same outcomes, over a store whose
// spare pool makes segments ahead and over one whose pool is closed.
// (Under ErrRate a segment create that fails ahead of need is retried in
// the commit, which then draws for the create once more — see
// TestCommitMatrix — so there the outcomes are not the same.)
func TestFaultsSameWithSegmentsMadeAhead(t *testing.T) {
	run := func(seed int64, ahead bool) (fired, outcomes []string, madeAhead int) {
		dir := t.TempDir()
		fs := newTestFS(t, dir)
		st := openDurable(t, dir, DurableOptions{
			WALOptions: WALOptions{Sync: SyncNone, SegmentBytes: 4 << 10},
			Faults:     func(int) *Faults { return fs.Faults },
		})
		defer st.Close()
		if !ahead {
			st.fsBackend().closeSpares()
		}
		fs.cfg.Seed = seed
		fs.SetConfig(FaultConfig{TornWriteRate: 0.05})
		for b := 0; b < 16; b++ {
			quiesce(st) // the burst the last commit started has made the next segment
			rotations, next := st.WALStats().Rotations, st.wal.next != nil
			n, err := st.PutBatch(batchOf(fmt.Sprintf("b%d-r", b), 3))
			outcomes = append(outcomes, fmt.Sprintf("%d %t", n, err != nil))
			if next && st.WALStats().Rotations > rotations {
				madeAhead++
			}
		}
		fired = slices.Clone(fs.fired)
		slices.Sort(fired)
		return fired, outcomes, madeAhead
	}
	for _, seed := range []int64{1, 2, 3} {
		fired, outcomes, _ := run(seed, false)
		again, outcomesAgain, madeAhead := run(seed, true)
		t.Logf("seed %d: %d faults fired, %d rotations into a segment made ahead", seed, len(fired), madeAhead)
		if len(fired) == 0 || madeAhead == 0 {
			t.Errorf("seed %d: %d faults fired, %d rotations into a segment made ahead; the schedule proves nothing", seed, len(fired), madeAhead)
		}
		if !reflect.DeepEqual(fired, again) || !slices.Equal(outcomes, outcomesAgain) {
			t.Errorf("seed %d: made ahead, the schedule drew differently:\n%v %v\n%v %v", seed, fired, outcomes, again, outcomesAgain)
		}
	}
}

// TestStoreIndexConsistencyAfterFailedPut is the store's degradation
// rung, entered and left under the injector: a write the disk refused
// is not in the index, the queries or the listing, and leaves no staged
// file behind; once the disk heals, a save lands.
func TestStoreIndexConsistencyAfterFailedPut(t *testing.T) {
	dir := t.TempDir()
	st, faults := faultedStore(t, dir, FaultConfig{Seed: 1})
	faults.SetConfig(FaultConfig{TornWriteRate: 1})
	rec := sampleRecord("rejected")
	err := st.Save(rec)
	if !errors.Is(err, ErrInjected) || !IsBackendError(err) {
		t.Fatalf("Save over a failing disk = %v, want injected BackendError", err)
	}
	if st.Len() != 0 {
		t.Fatalf("index holds %d records after a rejected write", st.Len())
	}
	if tmps := tempsIn(t, dir); len(tmps) != 0 {
		t.Fatalf("the rejected write left staged files: %v", tmps)
	}
	if _, err := st.Load(rec.App, rec.Version, rec.RunID); err == nil {
		t.Fatal("rejected record is loadable")
	}
	hits, err := st.Query(rec.App, "", ResultFilter{State: "true"})
	if err != nil || len(hits) != 0 {
		t.Fatalf("rejected record is queryable: %d hits, %v", len(hits), err)
	}
	names, _ := st.List()
	if len(names) != 0 {
		t.Fatalf("rejected record is listed: %v", names)
	}

	faults.SetConfig(FaultConfig{})
	if err := st.Save(rec); err != nil {
		t.Fatalf("Save after heal = %v", err)
	}
	if st.Len() != 1 {
		t.Fatalf("index holds %d records after successful save, want 1", st.Len())
	}
}

// TestStorePing proves the degraded-mode health probe: nil over a
// healthy disk (a miss is an answer), the fault while reads fail, nil
// again once they heal.
func TestStorePing(t *testing.T) {
	st, faults := faultedStore(t, t.TempDir(), FaultConfig{Seed: 1})
	if err := st.Ping(); err != nil {
		t.Fatalf("Ping over a healthy disk = %v", err)
	}
	faults.SetConfig(FaultConfig{ErrRate: 1})
	if err := st.Ping(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Ping over a failing disk = %v, want injected failure", err)
	}
	faults.SetConfig(FaultConfig{})
	if err := st.Ping(); err != nil {
		t.Fatalf("Ping after heal = %v", err)
	}
}

// TestEpochTempSweptAndGraded: a wal/EPOCH write whose rename fails, and
// whose cleanup fails too, orphans its temp file beside the journal;
// pcfsck grades it residue, and the next open sweeps it.
func TestEpochTempSweptAndGraded(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir, DurableOptions{})
	fs := newTestFS(t, dir)
	fs.install(nil, st.wal)
	fs.before = func(op fsOp) error {
		if (op.kind == "rename" || op.kind == "remove") && strings.HasPrefix(filepath.Base(op.path), ".epoch-") {
			return errors.New("injected rename failure")
		}
		return nil
	}
	if err := st.WAL().SetEpoch(st.WAL().Epoch() + 1); err == nil {
		t.Fatal("an epoch bump whose rename failed succeeded")
	}
	st.Close()
	orphans, _ := filepath.Glob(filepath.Join(walDirOf(dir), ".epoch-*.tmp"))
	if len(orphans) != 1 {
		t.Fatalf("orphaned epoch temp files = %v, want one", orphans)
	}
	orphan := filepath.ToSlash(filepath.Join(WALDirName, filepath.Base(orphans[0])))

	rep, err := FsckStore(dir, false)
	if err != nil || rep.Severity() != FsckResidue || !slices.Contains(findingPaths(rep), filepath.FromSlash(orphan)) {
		t.Fatalf("pcfsck grades the orphan %d (%v), findings %v; want residue at %s", rep.Severity(), err, findingPaths(rep), orphan)
	}
	st2, err := OpenStoreDurable(dir, DurableOptions{WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if swept := st2.Recovery().SweptTemp; !slices.Equal(swept, []string{orphan}) {
		t.Errorf("open swept %v, want %s", swept, orphan)
	}
	if rep, err := FsckStore(dir, false); err != nil || rep.Severity() != FsckClean {
		t.Errorf("after the open pcfsck grades %d (%v): %v", rep.Severity(), err, findingPaths(rep))
	}
}
