package history

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestCommitMatrix drives the store's one write path through every kind
// of mutation × every point it can fail at × both shapes of backend (the
// bare FSBackend, whose record files are staged beside the journal and
// published together, and a wrapped one, which gets a Put per record),
// and holds each outcome to the same invariant: the index, the record
// files and the fold of the journal name one state — the acknowledged
// one: the effect of the mutations ahead of the failure, the pre-image of
// the rest — and a reopen (the crash-recovery path) reproduces it from
// disk alone.
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
	puts := func(recs ...*RunRecord) (effects []func(state)) {
		for _, rec := range recs {
			effects = append(effects, func(s state) { s[rec.Key()] = encode(rec) })
		}
		return effects
	}
	r1 := sampleRecord("r1").Key()
	deletesR1 := []func(state){func(s state) { delete(s, r1) }}

	// Every case starts from a store holding r1 and r2. do runs the
	// operation, answering how many records it says it wrote (-1 when the
	// operation does not say); effects are what its mutations, in order, do
	// to the acknowledged state and runs the run ids they touch. wantMiss
	// marks the one operation whose success is an os.ErrNotExist answer.
	kinds := []struct {
		name     string
		do       func(st *Store) (int, error)
		runs     []string
		effects  []func(state)
		wantMiss bool
		deletes  bool
	}{
		{
			name:    "put",
			do:      func(st *Store) (int, error) { return -1, st.Save(sampleRecord("r9")) },
			runs:    []string{"r9"},
			effects: puts(sampleRecord("r9")),
		},
		{
			name:    "overwrite",
			do:      func(st *Store) (int, error) { return -1, st.Save(changed("r1")) },
			runs:    []string{"r1"},
			effects: puts(changed("r1")),
		},
		{
			name:    "delete",
			do:      func(st *Store) (int, error) { return -1, st.Delete("poisson", "A", "r1") },
			runs:    []string{"r1"},
			effects: deletesR1,
			deletes: true,
		},
		{
			name:     "delete-of-absent",
			do:       func(st *Store) (int, error) { return -1, st.Delete("poisson", "A", "r7") },
			runs:     []string{"r7"},
			effects:  []func(state){func(state) {}},
			wantMiss: true,
			deletes:  true,
		},
		{
			name:    "replicated put",
			do:      func(st *Store) (int, error) { return -1, st.ApplyReplicated(entryOf(changed("r1"))) },
			runs:    []string{"r1"},
			effects: puts(changed("r1")),
		},
		{
			name: "replicated delete",
			do: func(st *Store) (int, error) {
				return -1, st.ApplyReplicated(WALEntry{Op: WALOpDelete, App: "poisson", Version: "A", RunID: "r1"})
			},
			runs:    []string{"r1"},
			effects: deletesR1,
			deletes: true,
		},
		{
			name: "batch of 3",
			do: func(st *Store) (int, error) {
				return st.PutBatch([]*RunRecord{sampleRecord("r8"), changed("r1"), sampleRecord("r9")})
			},
			runs:    []string{"r8", "r1", "r9"},
			effects: puts(sampleRecord("r8"), changed("r1"), sampleRecord("r9")),
		},
		{
			// Entries as a pull delivers them: decoded, then one commit.
			name: "replicated run of 3",
			do: func(st *Store) (int, error) {
				return st.ApplyRun([]WALEntry{entryOf(sampleRecord("r8")), entryOf(changed("r1")), entryOf(sampleRecord("r9"))})
			},
			runs:    []string{"r8", "r1", "r9"},
			effects: puts(sampleRecord("r8"), changed("r1"), sampleRecord("r9")),
		},
	}

	// failTimes answers an injected error the first n times it is asked;
	// failOnce the first time.
	failTimes := func(n int) func() error {
		return func() error {
			if n == 0 {
				return nil
			}
			n--
			return errors.New("injected backend failure")
		}
	}
	failOnce := func() func() error { return failTimes(1) }
	// rotateNext makes the next commit rotate, and makes the segment it
	// rotates to ahead of it, as the spare pool does between commits —
	// or tries to: the first failure a case arms for a rotation strikes
	// the attempt made ahead, the second the commit's own.
	rotateNext := func(st *Store) {
		st.wal.opts.SegmentBytes = 1
		st.wal.makeAhead()
	}

	// arm injects the failure through the case's fsys (cleared after the
	// operation); target is the run id of the mutation it is to strike,
	// mutation `at` of the kind (a failure aimed past a kind's last
	// mutation is not run). journal marks the failures the journal refuses
	// the whole group at: nothing of it may be journaled or reach the
	// append hook. rotates marks the ones that strike the rotation ahead of
	// the group: the next commit must rotate and succeed. filesLag marks
	// the one failure that may leave a record file behind the journal until
	// the next open (the heal could not reach the backend either);
	// sparesMiss the ones a delete of an absent record never reaches;
	// compacts the ones whose commit rotates, after which the closed
	// segment may be gone and the journal fold is checked on the keys the
	// commit wrote.
	failures := []struct {
		name       string
		at         int
		arm        func(fs *testFS, st *Store, target string)
		fails      bool
		journal    bool
		rotates    bool
		filesLag   bool
		sparesMiss bool
		compacts   bool
	}{
		{
			name: "none",
			arm:  func(*testFS, *Store, string) {},
		},
		{
			name: "journal append fails",
			arm: func(fs *testFS, _ *Store, _ string) {
				fs.before = func(op fsOp) error {
					if op.kind == "write" && isSegment(op.path) {
						return errors.New("injected append failure") // torn, then refused
					}
					return nil
				}
			},
			fails:   true,
			journal: true,
		},
		{
			// The group's first frame is written whole, the second torn.
			name: "journal write fails on the 2nd frame",
			at:   1,
			arm: func(fs *testFS, _ *Store, _ string) {
				frames := 0
				fs.before = func(op fsOp) error {
					if op.kind == "write" && isSegment(op.path) {
						if frames++; frames == 2 {
							return errors.New("injected append failure")
						}
					}
					return nil
				}
			},
			fails:   true,
			journal: true,
		},
		{
			// The group is written — and handed to the append hook — but
			// its sync fails, once: it is compensated, not acknowledged.
			name: "journal sync fails",
			arm: func(fs *testFS, _ *Store, _ string) {
				once := failOnce()
				fs.before = func(op fsOp) error {
					if op.kind == "sync" && isSegment(op.path) {
						return once()
					}
					return nil
				}
			},
			fails: true,
		},
		{
			// The segment the commit rotates to was made ahead: the rotation
			// only switches files.
			name: "rotates into a segment made ahead",
			arm: func(fs *testFS, st *Store, _ string) {
				rotateNext(st)
				if st.wal.next == nil {
					t.Fatal("no segment made ahead")
				}
				fs.before = func(op fsOp) error {
					if op.kind == "create" && isSegment(op.path) || op.kind == "syncdir" && op.path == st.wal.dir {
						return fmt.Errorf("a rotation into a segment made ahead called %s", op.kind)
					}
					return nil
				}
			},
			compacts: true,
		},
		{
			// The segment cannot be made ahead; the rotation creates it.
			name: "next segment made ahead fails, the commit's succeeds",
			arm: func(fs *testFS, st *Store, _ string) {
				once := failOnce()
				fs.before = func(op fsOp) error {
					if op.kind == "create" && isSegment(op.path) {
						return once()
					}
					return nil
				}
				if rotateNext(st); st.wal.next != nil {
					t.Fatal("a segment was made ahead through a failed create")
				}
			},
			compacts: true,
		},
		{
			// The journal cannot create the segment it rotates to, ahead of
			// the commit nor in it.
			name: "next segment create fails",
			arm: func(fs *testFS, st *Store, _ string) {
				twice := failTimes(2)
				fs.before = func(op fsOp) error {
					if op.kind == "create" && isSegment(op.path) {
						return twice()
					}
					return nil
				}
				rotateNext(st)
			},
			fails:   true,
			journal: true,
			rotates: true,
		},
		{
			// The segment it rotates to is created, but its name cannot be
			// made durable, ahead of the commit nor in it.
			name: "next segment dir sync fails",
			arm: func(fs *testFS, st *Store, _ string) {
				twice := failTimes(2)
				fs.before = func(op fsOp) error {
					if op.kind == "syncdir" && op.path == st.wal.dir {
						return twice()
					}
					return nil
				}
				rotateNext(st)
			},
			fails:   true,
			journal: true,
			rotates: true,
		},
		{
			// As above, and the segment made ahead cannot be removed again
			// either: the commit's retry must take its place.
			name: "next segment dir sync and its cleanup fail",
			arm: func(fs *testFS, st *Store, _ string) {
				syncTwice, removeOnce := failTimes(2), failOnce()
				fs.before = func(op fsOp) error {
					switch {
					case op.kind == "syncdir" && op.path == st.wal.dir:
						return syncTwice()
					case op.kind == "remove" && isSegment(op.path):
						return removeOnce()
					}
					return nil
				}
				rotateNext(st)
			},
			fails:   true,
			journal: true,
			rotates: true,
		},
		{
			// The backend fails once: a put's rename is refused; a delete's
			// directory sync fails after the file is already gone, so the
			// compensation has a record to put back.
			name: "backend mutation fails",
			arm: func(fs *testFS, _ *Store, _ string) {
				once := failOnce()
				fs.before = func(op fsOp) error {
					if op.kind == "rename" || op.kind == "syncdir" {
						return once()
					}
					return nil
				}
			},
			fails:      true,
			sparesMiss: true, // the remove misses before any hook runs
		},
		{
			// The second record's temp file cannot be synced.
			name: "stage fails on the 2nd record",
			at:   1,
			arm: func(fs *testFS, _ *Store, target string) {
				fs.before = func(op fsOp) error {
					if op.kind != "sync" {
						return nil
					}
					data, err := os.ReadFile(op.path)
					if err != nil {
						return err
					}
					if rec, err := decodeRecord(data); err == nil && rec.RunID == target {
						return errors.New("injected data sync failure")
					}
					return nil
				}
			},
			fails: true,
		},
		{
			// The second record's rename is refused, once.
			name: "publish fails on the 2nd record",
			at:   1,
			arm: func(fs *testFS, _ *Store, target string) {
				once := failOnce()
				name := fileName(RecordKey{App: "poisson", Version: "A", RunID: target})
				fs.before = func(op fsOp) error {
					if op.kind == "rename" && filepath.Base(op.to) == name {
						return once()
					}
					return nil
				}
			},
			fails: true,
		},
		{
			// Every rename and removal happened; the directory sync that
			// would make them durable fails, once — nothing is acknowledged.
			name: "directory fsync fails",
			arm: func(fs *testFS, _ *Store, _ string) {
				once := failOnce()
				fs.before = func(op fsOp) error {
					if op.kind == "syncdir" {
						return once()
					}
					return nil
				}
			},
			fails:      true,
			sparesMiss: true,
		},
		{
			// The backend keeps failing after the first record file changed:
			// that change is never named durably, and the compensating entry
			// is journaled but cannot be healed into the files — every later
			// rename or removal of a record is refused.
			name: "heal after compensation fails",
			arm: func(fs *testFS, _ *Store, _ string) {
				changed := false
				fs.before = func(op fsOp) error {
					switch {
					case op.kind == "syncdir":
						return errors.New("injected dir sync failure")
					case op.kind == "rename" || op.kind == "remove" && !strings.HasSuffix(op.path, ".tmp"):
						if changed {
							return errors.New("injected backend failure")
						}
						changed = true
					}
					return nil
				}
			},
			fails:      true,
			filesLag:   true,
			sparesMiss: true,
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
		entries, issues, err := fsBackendAt(dir).Scan()
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
			if failure.at >= len(kind.effects) {
				continue
			}
			t.Run(kind.name+"/"+failure.name, func(t *testing.T) {
				for _, wrapped := range []bool{false, true} {
					name := "bare"
					if wrapped {
						name = "wrapped"
					}
					t.Run(name, func(t *testing.T) {
						dir := t.TempDir()
						var opts DurableOptions
						if wrapped {
							opts.Wrap = func(b Backend) Backend { return passThrough{b} }
						}
						st := openDurable(t, dir, opts)
						fb, bare := st.Backend().(*FSBackend)
						if !bare {
							fb = st.Backend().(passThrough).Backend.(*FSBackend)
						}
						want := state{}
						for _, rec := range []*RunRecord{sampleRecord("r1"), sampleRecord("r2")} {
							if err := st.Save(rec); err != nil {
								t.Fatal(err)
							}
							want[rec.Key()] = encode(rec)
						}
						shipped := 0
						st.wal.SetOnAppend(func(uint64, []byte) { shipped++ })
						journaled := st.wal.size

						quiesce(st)
						fs := newTestFS(t, dir)
						fs.install(fb, st.wal)
						failure.arm(fs, st, kind.runs[failure.at])
						wrote, err := kind.do(st)
						quiesce(st)
						fs.before = nil

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
						stand := len(kind.effects)
						if failed {
							stand = failure.at
							if failure.journal {
								stand = 0 // the group is refused whole
							}
						}
						for _, effect := range kind.effects[:stand] {
							effect(want)
						}
						if wrote >= 0 && wrote != stand {
							t.Errorf("wrote = %d, want %d", wrote, stand)
						}
						if failure.journal {
							if shipped != 0 {
								t.Errorf("%d frames of a refused group reached the append hook", shipped)
							}
							fi, err := os.Stat(st.wal.segmentPath(st.wal.seq))
							if err != nil || fi.Size() != journaled || st.wal.size != journaled {
								t.Errorf("segment is %d bytes (%v), journal says %d; the refused group began at %d",
									fi.Size(), err, st.wal.size, journaled)
							}
						}

						if got := indexState(st); !reflect.DeepEqual(got, want) {
							t.Errorf("index holds %v, want %v", keysOf(got), keysOf(want))
						}
						if got, want := foldState(dir), want; failure.compacts {
							if got, want = only(got, kind.runs), only(want, kind.runs); !reflect.DeepEqual(got, want) {
								t.Errorf("the rotated journal folds to %v, want %v", keysOf(got), keysOf(want))
							}
						} else if !reflect.DeepEqual(got, want) {
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
						if tmps := tempsIn(t, dir); len(tmps) != 0 {
							t.Errorf("the commit left staged files behind: %v", tmps)
						}
						if failure.rotates {
							// The journal kept its active segment: the next commit
							// rotates and lands.
							rotations, next := st.WALStats().Rotations, sampleRecord("r5")
							if err := st.Save(next); err != nil {
								t.Fatalf("the commit after a failed rotation: %v", err)
							}
							if got := st.WALStats().Rotations; got != rotations+1 {
								t.Errorf("the commit after a failed rotation rotated %d times, want once", got-rotations)
							}
							want[next.Key()] = encode(next)
							if got := indexState(st); !reflect.DeepEqual(got, want) {
								t.Errorf("after the next commit the index holds %v, want %v", keysOf(got), keysOf(want))
							}
						}

						// The crash-recovery path: no Close, reopen from disk alone.
						quiesce(st)
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
			})
		}
	}
}

// TestApplyRunStopsAtEntryThatDoesNotCheckOut: a replicated run whose
// second entry identifies as another key applies the first and nothing
// after it, over both shapes of backend — the staged commit and a
// wrapped one: one journal append, one record file, no staged file left
// behind, and an error naming the entry.
func TestApplyRunStopsAtEntryThatDoesNotCheckOut(t *testing.T) {
	misnamed := StoredEntry(sampleRecord("r2"))
	misnamed.RunID = "r3"
	run := []WALEntry{StoredEntry(sampleRecord("r1")), misnamed, StoredEntry(sampleRecord("r4"))}
	for _, wrapped := range []bool{false, true} {
		dir := t.TempDir()
		var opts DurableOptions
		if wrapped {
			opts.Wrap = func(b Backend) Backend { return passThrough{b} }
		}
		st := openDurable(t, dir, opts)
		before := st.WALStats().Appends
		n, err := st.ApplyRun(run)
		if n != 1 || err == nil || !strings.Contains(err.Error(), "entry 1 ") {
			t.Fatalf("wrapped=%v: ApplyRun = %d, %v; want 1 and an error naming entry 1", wrapped, n, err)
		}
		if got := st.WALStats().Appends - before; got != 1 {
			t.Errorf("wrapped=%v: %d journal appends, want 1", wrapped, got)
		}
		if keys := st.Keys(); len(keys) != 1 || keys[0] != run[0].Key() {
			t.Errorf("wrapped=%v: store holds %v, want %s only", wrapped, keys, run[0].Key())
		}
		names, _ := filepath.Glob(filepath.Join(dir, "*.json"))
		if tmps := tempsIn(t, dir); len(names) != 1 || len(tmps) != 0 {
			t.Errorf("wrapped=%v: record files %v, staged files %v; want r1's file only", wrapped, names, tmps)
		}
	}
}

// passThrough is a backend wrapper that adds nothing but the shape of
// one: the store writes it a Put or Delete per mutation, as it does a
// tracing decorator.
type passThrough struct{ Backend }

func (p passThrough) Inner() Backend { return p.Backend }

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

// TestCommitSyncsOncePerCommit pins the record path's fsync cost: at
// SyncAlways a commit is one journal sync however many entries it
// journals — a Save is one append and one sync, a PutBatch of k is k
// appends and one sync — and over the bare FSBackend one directory sync.
// The store runs under a fault injector installed as pcd -fault-*
// installs one, armed at zero rates: faults reach the commit that
// ships, not a Put per record.
func TestCommitSyncsOncePerCommit(t *testing.T) {
	dir := t.TempDir()
	fs := newTestFS(t, dir)
	st := openDurable(t, dir, DurableOptions{
		WALOptions: WALOptions{Sync: SyncAlways},
		Faults:     func(int) *Faults { return fs.Faults },
	})
	defer st.Close()
	dirSyncs := 0
	fs.after = func(op fsOp) {
		if op.kind == "syncdir" && op.path == dir {
			dirSyncs++
		}
	}
	const n, k = 5, 3
	for i := 0; i < n; i++ {
		if err := st.Save(sampleRecord(string(rune('a' + i)))); err != nil {
			t.Fatal(err)
		}
	}
	if ws := st.WALStats(); ws.Appends != n || ws.Syncs != n || dirSyncs != n {
		t.Fatalf("%d Saves cost %d appends, %d syncs and %d directory syncs, want %d of each", n, ws.Appends, ws.Syncs, dirSyncs, n)
	}
	batch := make([]*RunRecord, k)
	for i := range batch {
		batch[i] = sampleRecord(string(rune('p' + i)))
	}
	if saved, err := st.PutBatch(batch); err != nil || saved != k {
		t.Fatalf("PutBatch = %d, %v", saved, err)
	}
	if ws := st.WALStats(); ws.Appends != n+k || ws.Syncs != n+1 || dirSyncs != n+1 {
		t.Fatalf("a batch of %d cost %d appends, %d syncs and %d directory syncs, want %d, 1 and 1",
			k, ws.Appends-n, ws.Syncs-n, dirSyncs-n, k)
	}
	if c := fs.Counters(); c.Ops == 0 || c.Injected != 0 {
		t.Errorf("injector counters %+v: want the commits drawn for and nothing injected", c)
	}
}

// TestCommitGroupNeverStraddlesRotation: with segments too small for two
// frames a group still lands in one segment — rotation discards closed
// segments as applied, and a group's entries are not until its commit is
// over: after every group the journal holds that group whole, in order,
// and nothing else (a rotation inside it would have discarded its head).
func TestCommitGroupNeverStraddlesRotation(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir, DurableOptions{WALOptions: WALOptions{SegmentBytes: 64}})
	defer st.Close()
	for round := 0; round < 4; round++ {
		batch := make([]*RunRecord, 3)
		for i := range batch {
			batch[i] = sampleRecord(fmt.Sprintf("r%d-%d", round, i))
		}
		rotations := st.WALStats().Rotations
		if n, err := st.PutBatch(batch); err != nil || n != len(batch) {
			t.Fatalf("PutBatch = %d, %v", n, err)
		}
		if got := st.WALStats().Rotations - rotations; got > 1 {
			t.Fatalf("a group of %d rotated the journal %d times, want at most once, ahead of it", len(batch), got)
		}
		entries, scan, err := ReadWAL(walDirOf(dir))
		if err != nil || scan.TornTail || len(scan.Corrupt) != 0 || len(entries) != len(batch) {
			t.Fatalf("journal after group %d holds %d entries (%v %+v), want the group whole and nothing else", round, len(entries), err, scan)
		}
		for i, e := range entries {
			if e.RunID != batch[i].RunID {
				t.Fatalf("journal entry %d is %s, want %s", i, e.RunID, batch[i].RunID)
			}
		}
	}
	if got := st.WALStats().Rotations; got != 3 {
		t.Fatalf("%d rotations over 4 groups, want one ahead of each but the first", got)
	}
}

// TestCommitDurabilityOrder holds one commit to the order its
// acknowledgement depends on: every record file's data sync and the
// journal's sync come before the first rename, the directory sync after
// the last, and nothing is indexed (so nothing acknowledged) before it.
func TestCommitDurabilityOrder(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir, DurableOptions{})
	defer st.Close()
	// The batch rotates the journal into a segment made ahead of it.
	if err := st.Save(sampleRecord("first")); err != nil {
		t.Fatal(err)
	}
	quiesce(st)
	var steps []string
	fs := newTestFS(t, dir)
	fs.install(st.Backend().(*FSBackend), st.wal)
	st.wal.opts.SegmentBytes = 1
	if st.wal.makeAhead(); st.wal.next == nil {
		t.Fatal("no segment made ahead")
	}
	fs.before = func(op fsOp) error {
		switch op.kind {
		case "rename":
			steps = append(steps, "rename")
		case "syncdir":
			if op.path != dir {
				return nil // the journal's, for a segment made ahead between commits
			}
			if st.Len() != 1 {
				t.Error("records indexed before the directory sync")
			}
			steps = append(steps, "dir sync")
		}
		return nil
	}
	fs.after = func(op fsOp) {
		switch {
		case op.kind == "sync" && isSegment(op.path):
			steps = append(steps, "journal sync")
		case op.kind == "sync":
			steps = append(steps, "data sync")
		}
	}
	const k = 6 // more than stageWorkers
	batch := make([]*RunRecord, k)
	for i := range batch {
		batch[i] = sampleRecord(fmt.Sprintf("r%d", i))
	}
	if n, err := st.PutBatch(batch); err != nil || n != k {
		t.Fatalf("PutBatch = %d, %v", n, err)
	}
	quiesce(st)
	if st.WALStats().Rotations != 1 {
		t.Fatal("the batch did not rotate the journal")
	}
	if len(steps) != 2*k+2 {
		t.Fatalf("steps = %v, want %d data syncs, a journal sync, %d renames and a directory sync", steps, k, k)
	}
	for i, step := range steps {
		switch {
		case i <= k && step != "data sync" && step != "journal sync",
			i > k && i <= 2*k && step != "rename",
			i == 2*k+1 && step != "dir sync":
			t.Fatalf("step %d is %q in %v", i, step, steps)
		}
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
	dir := t.TempDir()
	if err := os.MkdirAll(walDirOf(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	var steps []string
	fs := newTestFS(t, dir)
	fs.after = func(op fsOp) {
		if step := map[string]string{"sync": "sync data", "rename": "rename", "syncdir": "sync dir"}[op.kind]; step != "" {
			steps = append(steps, step)
		}
	}
	want := []string{"sync data", "rename", "sync dir"}

	if err := writeWALEpoch(fs, walDirOf(dir), 7); err != nil {
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
	if err := syncPromotedStateEpoch(fs, dir, 7); err != nil {
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
	fs.before = func(op fsOp) error {
		if op.kind == "sync" {
			return errors.New("injected sync failure")
		}
		return nil
	}
	steps = nil
	if err := writeWALEpoch(fs, walDirOf(dir), 8); err == nil {
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

// only is the part of s whose run ids are among runs.
func only[V any](s map[RecordKey]V, runs []string) map[RecordKey]V {
	out := map[RecordKey]V{}
	for k, v := range s {
		if slices.Contains(runs, k.RunID) {
			out[k] = v
		}
	}
	return out
}
