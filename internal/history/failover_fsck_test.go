package history

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Failover durability checks: the promoted-shard epoch cross-check
// (replica/STATE.json vs wal/EPOCH) and the open-time re-sync that
// keeps it true across restarts.

// writeReplicaState writes a minimal replica/STATE.json under dir.
func writeReplicaState(t *testing.T, dir string, st map[string]any) {
	t.Helper()
	rdir := filepath.Join(dir, "replica")
	if err := os.MkdirAll(rdir, 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(rdir, "STATE.json"), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readStateEpoch(t *testing.T, dir string) uint64 {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "replica", "STATE.json"))
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]any
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	e, _ := st["epoch"].(float64)
	return uint64(e)
}

// TestFsckPromotedStateEpochMismatch: a promoted shard whose persisted
// state epoch disagrees with the journal's is crash residue from
// between the two writes of a promotion; -repair reconciles the state
// file to the journal (the authority fencing compares against).
func TestFsckPromotedStateEpochMismatch(t *testing.T) {
	dir := fsckDurableStore(t)
	jepoch, err := JournalEpoch(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeReplicaState(t, dir, map[string]any{
		"version": 2, "epoch": jepoch + 4, "applied_seq": 3, "promoted": true,
	})
	rep, err := FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckResidue {
		t.Fatalf("epoch mismatch graded %d, want residue: %v", rep.Severity(), findingPaths(rep))
	}
	found := false
	for _, f := range rep.Findings {
		if f.Path == filepath.Join("replica", "STATE.json") && strings.Contains(f.Problem, "disagrees with journal epoch") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no STATE.json finding in %v", findingPaths(rep))
	}
	// Repair is an open: it restarts the journal, advancing its epoch, and
	// reconciles the state to it; the next pass is clean.
	if _, err := FsckStore(dir, true); err != nil {
		t.Fatal(err)
	}
	if jepoch, err = JournalEpoch(dir); err != nil {
		t.Fatal(err)
	}
	if got := readStateEpoch(t, dir); got != jepoch {
		t.Fatalf("repaired state epoch = %d, want the journal's %d", got, jepoch)
	}
	rep, err = FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckClean {
		t.Fatalf("store after repair graded %d: %v", rep.Severity(), findingPaths(rep))
	}
}

// TestFsckUnpromotedStateEpochNotChecked: an unpromoted follower's
// state epoch tracks its remote primary's journal, not the local one —
// a mismatch there is normal and must not be flagged.
func TestFsckUnpromotedStateEpochNotChecked(t *testing.T) {
	dir := fsckDurableStore(t)
	writeReplicaState(t, dir, map[string]any{
		"version": 2, "epoch": 42, "applied_seq": 3,
	})
	rep, err := FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckClean {
		t.Fatalf("unpromoted state epoch flagged: %v", findingPaths(rep))
	}
}

// TestOpenResyncsPromotedStateEpoch: StartWAL bumps the journal
// generation at every open; a promoted shard's state file must track it
// (it is the epoch the node advertises for fencing), so OpenStoreDurable
// re-syncs — keeping the fsck invariant true across restarts.
func TestOpenResyncsPromotedStateEpoch(t *testing.T) {
	dir := fsckDurableStore(t)
	jepoch, err := JournalEpoch(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeReplicaState(t, dir, map[string]any{
		"version": 2, "epoch": jepoch, "applied_seq": 3, "promoted": true,
	})
	st := openDurable(t, dir, DurableOptions{WAL: true})
	bumped := st.WAL().Epoch()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readStateEpoch(t, dir); got != bumped {
		t.Fatalf("state epoch after reopen = %d, want the bumped journal epoch %d", got, bumped)
	}
	rep, err := FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckClean {
		t.Fatalf("reopened promoted store graded %d: %v", rep.Severity(), findingPaths(rep))
	}
}
