package replica

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/history"
)

// scriptedPull is a primary that answers each pull with the next prepared
// body: a header naming the first frame's sequence number, then frames.
type scriptedPull struct {
	first   uint64
	entries []history.WALEntry
}

func scriptedPrimary(t *testing.T, script *[]scriptedPull) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/replica/wal", func(w http.ResponseWriter, r *http.Request) {
		if len(*script) == 0 {
			t.Error("pull past the end of the script")
			return
		}
		next := (*script)[0]
		*script = (*script)[1:]
		frames, err := encodeFrames(next.entries)
		if err != nil {
			t.Error(err)
		}
		writeFrames(w, PullResponse{HeadSeq: next.first + uint64(len(frames)) - 1, FirstSeq: next.first}, frames)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestFollowerFoldsPullAsOneCommit: the frames of one pull that continue
// the shard's position are one commit on the follower — a primary's batch
// of eight costs it eight journal appends and one journal sync, as it
// cost the primary — and the edges of the frame-at-a-time loop are kept:
// frames delivered before are skipped, a delete of a record already
// absent does not stop the run, the entries ahead of one that does not
// check out are applied and the error names the offender's sequence
// number, a gap applies nothing, and the position is recorded once, at
// the last applied frame.
func TestFollowerFoldsPullAsOneCommit(t *testing.T) {
	put := func(run string, val float64) history.WALEntry {
		return history.StoredEntry(rec("poisson", "A", run, val))
	}
	del := func(run string) history.WALEntry {
		return history.WALEntry{Op: history.WALOpDelete, App: "poisson", Version: "A", RunID: run}
	}
	var batch []history.WALEntry
	for i := 0; i < 8; i++ {
		batch = append(batch, put(string(rune('a'+i)), float64(i)))
	}
	misnamed := put("x", 1)
	misnamed.RunID = "y" // the payload identifies as another run: a damaged stream
	script := []scriptedPull{
		{first: 1, entries: batch},
		// Frames 7 and 8 again, then a delete, the same delete re-delivered
		// (the record is already gone), and a put after it.
		{first: 7, entries: []history.WALEntry{batch[6], batch[7], del("a"), del("a"), put("i", 9)}},
		// Two good frames, one that does not check out, one more good one.
		{first: 12, entries: []history.WALEntry{put("j", 1), put("k", 2), misnamed, put("l", 3)}},
		// A gap: the body starts past the next frame wanted.
		{first: 20, entries: []history.WALEntry{put("z", 1)}},
	}
	ts := scriptedPrimary(t, &script)

	dir := t.TempDir()
	fst, err := history.OpenStoreDurable(dir, history.DurableOptions{Create: true, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()
	fol, err := NewFollower(ts.URL, "http://follower-1", fst)
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Stop()
	persisted := func() uint64 {
		rs, err := loadState(dir)
		if err != nil {
			t.Fatal(err)
		}
		return rs.Applied
	}
	pull := func(wantApplied int, wantAppends, wantSyncs, wantPos uint64) error {
		t.Helper()
		before := fst.WALStats()
		n, err := fol.pullOnce(0, 0)
		after := fst.WALStats()
		if n != wantApplied || after.Appends-before.Appends != wantAppends || after.Syncs-before.Syncs != wantSyncs {
			t.Fatalf("pull applied %d frames for %d journal appends and %d syncs (%v), want %d, %d and %d",
				n, after.Appends-before.Appends, after.Syncs-before.Syncs, err, wantApplied, wantAppends, wantSyncs)
		}
		if pos := fol.tab.read().rows[0].applied; pos != wantPos || persisted() != wantPos {
			t.Fatalf("position %d (persisted %d), want %d", pos, persisted(), wantPos)
		}
		return err
	}

	if err := pull(8, 8, 1, 8); err != nil {
		t.Fatal(err)
	}
	if err := pull(3, 3, 1, 11); err != nil {
		t.Fatalf("a re-delivered delete stopped the run: %v", err)
	}
	if _, err := fst.Load("poisson", "A", "a"); err == nil {
		t.Fatal("deleted record still served")
	}
	if _, err := fst.Load("poisson", "A", "i"); err != nil {
		t.Fatalf("the put after the re-delivered delete: %v", err)
	}
	err = pull(2, 2, 1, 13)
	if err == nil || !strings.Contains(err.Error(), "frame 14") {
		t.Fatalf("err = %v, want one naming frame 14", err)
	}
	if _, err := fst.Load("poisson", "A", "l"); err == nil {
		t.Fatal("a frame past the one that did not check out was applied")
	}
	// A staged file holds bytes; an empty one is a spare the store made
	// ahead of its next commit.
	tmps, _ := filepath.Glob(filepath.Join(dir, ".put-*.tmp"))
	for _, tmp := range tmps {
		if fi, err := os.Stat(tmp); err == nil && fi.Size() > 0 {
			t.Fatalf("staged files survive the frames that did not land: %s", tmp)
		}
	}
	if err := pull(0, 0, 0, 13); err != nil {
		t.Fatal(err)
	}
	if fst.Len() != 10 { // a..h less a, plus i, j, k
		t.Fatalf("store holds %d records, want 10: %v", fst.Len(), fst.Keys())
	}
}

// TestFollowerAckRewritesNoFile: an applied pull moves the position by
// one write in place — over ten pulls STATE.json and POSITION keep their
// inodes and replica/ holds nothing else — and a restart takes POSITION's
// record only when it checks, is of STATE.json's epoch and is ahead of it,
// never past the last entry applied; a POSITION longer than its record
// is read and rewritten at its head.
func TestFollowerAckRewritesNoFile(t *testing.T) {
	const pulls = 10
	var script []scriptedPull
	for i := 0; i <= pulls; i++ {
		script = append(script, scriptedPull{first: uint64(i + 1), entries: []history.WALEntry{
			history.StoredEntry(rec("poisson", "A", string(rune('a'+i)), float64(i))),
		}})
	}
	ts := scriptedPrimary(t, &script)

	dir := t.TempDir()
	fst, err := history.OpenStoreDurable(dir, history.DurableOptions{Create: true, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()
	if err := writeState(dir, replState{Primary: ts.URL}); err != nil {
		t.Fatal(err)
	}
	fol, err := NewFollower(ts.URL, "http://follower-1", fst)
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Stop()
	stat := func(path string) os.FileInfo {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	pull := func() {
		t.Helper()
		if n, err := fol.pullOnce(0, 0); n != 1 || err != nil {
			t.Fatalf("pull applied %d frames: %v", n, err)
		}
		des, err := os.ReadDir(filepath.Join(dir, stateDirName))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, de := range des {
			names = append(names, de.Name())
		}
		if !slices.Equal(names, []string{positionFileName, stateFileName}) {
			t.Fatalf("replica/ holds %q after a pull, want POSITION and STATE.json only", names)
		}
	}
	pull() // the first creates POSITION
	state, position := stat(statePath(dir)), stat(positionPath(dir))
	for range pulls {
		pull()
	}
	if !os.SameFile(state, stat(statePath(dir))) || !os.SameFile(position, stat(positionPath(dir))) {
		t.Fatal("a pull replaced STATE.json or POSITION")
	}
	const last = pulls + 1
	if rs, err := loadState(dir); err != nil || rs.Applied != last {
		t.Fatalf("loadState = %+v, %v, want the position at %d", rs, err, last)
	}
	fol.Stop()

	good, err := os.ReadFile(positionPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		state     replState // STATE.json's columns
		position  []byte    // POSITION's bytes
		wantApply uint64
	}{
		{"ahead at the same epoch", replState{Primary: ts.URL}, good, last},
		{"torn", replState{Primary: ts.URL, Applied: 4}, good[:positionSize/2], 4},
		{"garbage", replState{Primary: ts.URL, Applied: 4}, []byte("not a position record"), 4},
		{"bit flip", replState{Primary: ts.URL, Applied: 4}, append(slices.Clone(good[:positionSize-1]), good[positionSize-1]^1), 4},
		{"another epoch", replState{Epoch: 1, Primary: ts.URL, Applied: 4}, good, 4},
		{"behind", replState{Primary: ts.URL, Applied: last}, encodePosition(0, 4), last},
	} {
		if err := writeState(dir, c.state); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(positionPath(dir), c.position, 0o644); err != nil {
			t.Fatal(err)
		}
		again, err := NewFollower(ts.URL, "http://follower-1", fst)
		if err != nil {
			t.Fatal(err)
		}
		if got := again.tab.read().rows[0].applied; got != c.wantApply || got > last {
			t.Errorf("%s: restarted at %d, want %d (last applied %d)", c.name, got, c.wantApply, last)
		}
	}

	// A POSITION longer than one record: the restart keeps STATE.json's
	// position, a pull rewrites the record at its head, and the next
	// restart takes that record.
	if err := writeState(dir, replState{Primary: ts.URL, Applied: last}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(positionPath(dir), []byte(strings.Repeat("garbage ", 5)), 0o644); err != nil {
		t.Fatal(err)
	}
	script = append(script, scriptedPull{first: last + 1, entries: []history.WALEntry{
		history.StoredEntry(rec("poisson", "A", "z", 1)),
	}})
	again, err := NewFollower(ts.URL, "http://follower-1", fst)
	if err != nil {
		t.Fatal(err)
	}
	if got := again.tab.read().rows[0].applied; got != last {
		t.Fatalf("long POSITION: restarted at %d, want %d", got, last)
	}
	if n, err := again.pullOnce(0, 0); n != 1 || err != nil {
		t.Fatalf("pull applied %d frames: %v", n, err)
	}
	again, err = NewFollower(ts.URL, "http://follower-1", fst)
	if err != nil {
		t.Fatal(err)
	}
	if got := again.tab.read().rows[0].applied; got != last+1 {
		t.Fatalf("long POSITION rewritten by a pull: restarted at %d, want %d", got, last+1)
	}
}

// TestStoredEntryShipsFileBytes: the follower's load and loadall ops
// ship a record under the bytes its file holds, read from disk, when
// they check out against the index — and under the record's encoding,
// the same bytes, when the file was rewritten behind the store's back.
func TestStoredEntryShipsFileBytes(t *testing.T) {
	faults := history.NewFaults(history.FaultConfig{Seed: 1})
	st, err := history.OpenStoreDurable(t.TempDir(), history.DurableOptions{
		Create: true, WAL: true, Faults: func(int) *history.Faults { return faults },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Save(rec("poisson", "A", "r1", 1)); err != nil {
		t.Fatal(err)
	}
	first, err := st.Load("poisson", "A", "r1")
	if err != nil {
		t.Fatal(err)
	}
	file, err := st.Backend().Get(first.Key())
	if err != nil {
		t.Fatal(err)
	}
	ops := faults.Counters().Ops
	if e, err := st.LoadEntry("poisson", "A", "r1"); err != nil || !slices.Equal(e.Data, file) || e.Key() != first.Key() || e.Op != history.WALOpPut {
		t.Errorf("stored entry = %s %s, %d bytes, %v; want the put of the record file's %d", e.Op, e.Key(), len(e.Data), err, len(file))
	}
	if n := faults.Counters().Ops - ops; n != 1 {
		t.Errorf("the stored entry took %d disk calls, want the one read of the record file", n)
	}
	if all := st.LoadEntries("poisson", "A"); len(all) != 1 || !slices.Equal(all[0].Data, file) {
		t.Errorf("loadall shipped %d entries, want the record file's", len(all))
	}

	if err := st.Save(rec("poisson", "A", "r1", 2)); err != nil {
		t.Fatal(err)
	}
	second, _ := st.Load("poisson", "A", "r1")
	if err := st.Backend().Put(second.Key(), history.EncodeRecord(first)); err != nil {
		t.Fatal(err)
	}
	if e, _ := st.LoadEntry("poisson", "A", "r1"); !slices.Equal(e.Data, history.StoredEntry(second).Data) {
		t.Error("a record whose file was rewritten behind the store's back shipped the file")
	}
}
