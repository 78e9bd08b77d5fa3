package history

import (
	"errors"
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

// TestPutBatchStorePartialFailure injects a backend fault mid-batch and
// checks the count reflects what actually landed.
func TestPutBatchStorePartialFailure(t *testing.T) {
	fb := NewFaultBackend(NewMemBackend(), FaultConfig{})
	st, err := NewStoreWith(fb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.PutBatch([]*RunRecord{shardSample("a", "", "r1", 0.5)}); err != nil {
		t.Fatal(err)
	}
	fb.SetConfig(FaultConfig{ErrRate: 1})
	n, err := st.PutBatch([]*RunRecord{shardSample("a", "", "r2", 0.5), shardSample("a", "", "r3", 0.5)})
	if err == nil {
		t.Fatal("faulted batch succeeded")
	}
	if n != 0 {
		t.Errorf("saved %d records through a failing backend", n)
	}
	fb.SetConfig(FaultConfig{})
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
