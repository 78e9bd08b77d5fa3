package history

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestPutBatchStore covers the single-store batch path: all-in input
// order, whole-batch validation before any write, and the saved count
// on partial failure.
func TestPutBatchStore(t *testing.T) {
	st := NewMemStore()
	batch := []*RunRecord{
		shardSample("poisson", "A", "r1", 0.5),
		shardSample("poisson", "B", "r1", 0.4),
		shardSample("ocean", "", "r1", 0.3),
	}
	n, err := st.PutBatch(batch)
	if err != nil || n != 3 {
		t.Fatalf("PutBatch = %d, %v", n, err)
	}
	for _, rec := range batch {
		if _, err := st.Load(rec.App, rec.Version, rec.RunID); err != nil {
			t.Errorf("load %s: %v", rec.Key(), err)
		}
	}
	// A malformed record anywhere fails the whole batch before a write.
	bad := shardSample("poisson", "C", "r2", 0.1)
	bad.TrueCount = 99
	n, err = st.PutBatch([]*RunRecord{shardSample("poisson", "C", "r1", 0.1), bad})
	if err == nil || n != 0 {
		t.Fatalf("invalid batch: n=%d err=%v", n, err)
	}
	if _, err := st.Load("poisson", "C", "r1"); err == nil {
		t.Error("invalid batch left a partial write")
	}
	if n, err := st.PutBatch([]*RunRecord{nil}); err == nil || n != 0 {
		t.Errorf("nil record batch: n=%d err=%v", n, err)
	}
	if n, err := st.PutBatch(nil); err != nil || n != 0 {
		t.Errorf("empty batch: n=%d err=%v", n, err)
	}
}

// TestPutBatchStorePartialFailure injects disk faults under a batch and
// checks the count reflects what actually landed.
func TestPutBatchStorePartialFailure(t *testing.T) {
	st, faults := faultedStore(t, t.TempDir(), FaultConfig{Seed: 1})
	if _, err := st.PutBatch([]*RunRecord{shardSample("a", "", "r1", 0.5)}); err != nil {
		t.Fatal(err)
	}
	faults.SetConfig(FaultConfig{ErrRate: 1})
	n, err := st.PutBatch([]*RunRecord{shardSample("a", "", "r2", 0.5), shardSample("a", "", "r3", 0.5)})
	if err == nil {
		t.Fatal("faulted batch succeeded")
	}
	if n != 0 || st.Len() != 1 {
		t.Errorf("saved %d records through a failing disk; the index holds %d", n, st.Len())
	}
	faults.SetConfig(FaultConfig{})
	if n, err := st.PutBatch([]*RunRecord{shardSample("a", "", "r2", 0.5)}); err != nil || n != 1 {
		t.Errorf("recovered batch: n=%d err=%v", n, err)
	}
}

// TestPutBatchShardedGroups writes one batch spanning shards and checks
// the result is indistinguishable from per-record saves into a single
// store: same keys, same records, grouping is invisible.
func TestPutBatchShardedGroups(t *testing.T) {
	dir := t.TempDir()
	sh, err := OpenSharded(dir, 4, DurableOptions{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	var batch []*RunRecord
	for _, v := range []string{"A", "B", "C", "G", "H"} {
		batch = append(batch, shardSample("poisson", v, "r1", 0.5))
		batch = append(batch, shardSample("poisson", v, "r2", 0.4))
	}
	n, err := sh.PutBatch(batch)
	if err != nil || n != len(batch) {
		t.Fatalf("PutBatch = %d, %v", n, err)
	}
	single := NewMemStore()
	for _, rec := range batch {
		if err := single.Save(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := sh.Keys(), single.Keys(); !reflect.DeepEqual(got, want) {
		t.Errorf("sharded keys %v, single keys %v", got, want)
	}
	for _, rec := range batch {
		got, err := sh.Load(rec.App, rec.Version, rec.RunID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Results[0].Value != rec.Results[0].Value {
			t.Errorf("%s round-tripped wrong", rec.Key())
		}
	}
}

// TestPutBatchShardedDownShard: a batch touching a down shard saves the
// groups before it (ascending shard order) and stops with a transient
// backend error.
func TestPutBatchShardedDownShard(t *testing.T) {
	dir := t.TempDir()
	sh, err := OpenSharded(dir, 4, DurableOptions{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	// poisson/A routes to shard 3 (pinned by TestShardForKeyStable);
	// force it down and batch a shard-3 record behind a healthy one.
	for i := 0; i < sh.threshold; i++ {
		sh.shards[3].noteErr(sh.threshold, errors.New("forced down for test"))
	}
	batch := []*RunRecord{
		shardSample("poisson", "A", "r1", 0.5), // shard 3: down
		shardSample("poisson", "B", "r1", 0.4), // shard 2: healthy
	}
	n, err := sh.PutBatch(batch)
	if err == nil {
		t.Fatal("batch into a down shard succeeded")
	}
	if !IsBackendError(err) || !strings.Contains(err.Error(), "shard down") {
		t.Errorf("down-shard err = %v", err)
	}
	if n != 1 {
		t.Errorf("saved = %d, want 1 (the healthy shard's group)", n)
	}
	if _, err := sh.Load("poisson", "B", "r1"); err != nil {
		t.Errorf("healthy group not saved: %v", err)
	}
	if _, err := sh.Load("poisson", "A", "r1"); err == nil || !errors.Is(err, errShardDown) {
		t.Errorf("down group load err = %v", err)
	}
}

// handOver is a ShardFailover whose every shard is served by one store —
// the receiving end of ShardReplica is Store itself.
type handOver struct{ to *Store }

func (h handOver) Reader(int) (ShardReplica, bool)   { return h.to, true }
func (h handOver) Promote(int) (ShardReplica, error) { return h.to, nil }

// TestShardedHandOverAppliesPreparedEntries: a write to a down shard goes
// to the promoted follower as the journal entries the local shard would
// have committed, so the follower's file holds the bytes a local Save
// writes (EncodeRecord, once, on the sender); a delete of an absent key
// is still a miss; and a batch with one entry that does not check out is
// refused before its first entry is written.
func TestShardedHandOverAppliesPreparedEntries(t *testing.T) {
	sh, err := OpenSharded(t.TempDir(), 4, DurableOptions{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	folDir, localDir := t.TempDir(), t.TempDir()
	fol, err := OpenStoreDurable(folDir, DurableOptions{Create: true, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	local, err := NewStore(localDir)
	if err != nil {
		t.Fatal(err)
	}
	sh.SetFailover(handOver{fol}, true)
	// poisson/A routes to shard 3 (pinned by TestShardForKeyStable).
	for i := 0; i < sh.threshold; i++ {
		sh.shards[3].noteErr(sh.threshold, errors.New("forced down for test"))
	}

	recs := []*RunRecord{shardSample("poisson", "A", "r1", 0.5), shardSample("poisson", "A", "r2", 0.25), shardSample("poisson", "A", "r3", 1)}
	if err := sh.Save(recs[0]); err != nil {
		t.Fatal(err)
	}
	if n, err := sh.PutBatch(recs[1:]); n != 2 || err != nil {
		t.Fatalf("handed-over PutBatch = %d, %v", n, err)
	}
	if err := sh.Delete("poisson", "A", "r3"); err != nil {
		t.Fatal(err)
	}
	if err := sh.Delete("poisson", "A", "r3"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("handed-over delete of an absent key = %v, want a miss", err)
	}
	for _, rec := range recs[:2] {
		if err := local.Save(rec); err != nil {
			t.Fatal(err)
		}
		name := fileName(rec.Key())
		got, err := os.ReadFile(filepath.Join(folDir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(localDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || !bytes.Equal(got, EncodeRecord(rec)) {
			t.Errorf("%s on the follower differs from a local Save's file", name)
		}
	}
	if fol.Len() != 2 {
		t.Fatalf("follower holds %v, want r1 and r2", fol.Keys())
	}

	// The receiving end trusts nothing it was handed.
	other, invalid := shardSample("poisson", "A", "r9", 2), shardSample("poisson", "A", "r5", 3)
	invalid.TrueCount = 7
	for what, second := range map[string]WALEntry{
		"another key's record": {Op: WALOpPut, App: "poisson", Version: "A", RunID: "r5", Data: EncodeRecord(other)},
		"an invalid record":    {Op: WALOpPut, App: "poisson", Version: "A", RunID: "r5", Data: EncodeRecord(invalid)},
		"an unknown op":        {Op: "merge", App: "poisson", Version: "A", RunID: "r5"},
	} {
		n, err := fol.Apply([]WALEntry{StoredEntry(shardSample("poisson", "A", "r4", 4)), second})
		if n != 0 || err == nil || IsBackendError(err) {
			t.Errorf("Apply with %s second = %d, %v; want it refused whole, not as storage trouble", what, n, err)
		}
		if _, err := os.Stat(filepath.Join(folDir, fileName(RecordKey{App: "poisson", Version: "A", RunID: "r4"}))); !os.IsNotExist(err) {
			t.Errorf("Apply with %s second wrote its first entry (stat: %v)", what, err)
		}
	}
}
