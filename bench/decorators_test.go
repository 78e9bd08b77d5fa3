package main

import (
	"errors"
	"os"
	"reflect"
	"syscall"
	"testing"

	"repro/internal/history"
)

func testRecord(app, version, runID string) *history.RunRecord {
	return &history.RunRecord{
		App: app, Version: version, RunID: runID, Duration: 10,
		Results: []history.NodeResult{
			{Hyp: "CPUbound", Focus: "</Code,/Machine,/Process,/SyncObject>", State: "true", Value: 0.5, Threshold: 0.3},
			{Hyp: "ExcessiveIOBlockingTime", Focus: "</Code,/Machine,/Process,/SyncObject>", State: "false", Value: 0.01, Threshold: 0.1},
		},
		TrueCount: 1, PairsTested: 2,
	}
}

// The Storage decorator must be invisible: same results, same errors,
// and the optional ShardStats interface the server probes for.
func TestTracedStoragePassesThrough(t *testing.T) {
	for _, shards := range []int{0, 3} {
		rec := newRecorder()
		rec.enabled.Store(true)
		st, err := history.OpenStoreAuto(t.TempDir(), shards, history.DurableOptions{
			Create: true, WAL: true,
			Wrap: func(b history.Backend) history.Backend { return &tracedBackend{Backend: b, rec: rec} },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		ts := &tracedStorage{Storage: st, rec: rec, layer: "history"}

		// The Backend wrapper must not hide the directory from the store.
		if ts.Dir() == "" || ts.Dir() != st.Dir() {
			t.Errorf("shards=%d: Dir() through the wrappers = %q, store says %q", shards, ts.Dir(), st.Dir())
		}
		recs := []*history.RunRecord{testRecord("a", "v1", "r1"), testRecord("a", "v2", "r2"), testRecord("b", "", "r3")}
		if err := ts.Save(recs[0]); err != nil {
			t.Fatal(err)
		}
		if n, err := ts.PutBatch(recs[1:]); err != nil || n != 2 {
			t.Fatalf("PutBatch = %d, %v", n, err)
		}
		got, err := ts.Load("a", "v1", "r1")
		want, _ := st.Load("a", "v1", "r1")
		if err != nil || got != want {
			t.Errorf("shards=%d: Load through the wrapper = %p, %v; store hands out %p", shards, got, err, want)
		}
		if _, err := ts.Load("a", "v1", "missing"); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("shards=%d: Load of a missing record = %v, want os.ErrNotExist", shards, err)
		}
		bad := testRecord("a", "v1", "bad")
		bad.TrueCount = 5
		errDirect, errWrapped := st.Save(bad), ts.Save(bad)
		if errDirect == nil || errWrapped == nil || errDirect.Error() != errWrapped.Error() {
			t.Errorf("shards=%d: invalid Save: direct %v, wrapped %v", shards, errDirect, errWrapped)
		}
		f := history.ResultFilter{State: "true"}
		q1, _ := st.Query("a", "", f)
		q2, err := ts.Query("a", "", f)
		if err != nil || !reflect.DeepEqual(q1, q2) || len(q2) != 2 {
			t.Errorf("shards=%d: Query through the wrapper: %d hits, %v; direct %d", shards, len(q2), err, len(q1))
		}
		p1, _ := st.PersistentBottlenecks("a", "", 2)
		p2, _ := ts.PersistentBottlenecks("a", "", 2)
		if !reflect.DeepEqual(p1, p2) || len(p2) != 1 {
			t.Errorf("shards=%d: PersistentBottlenecks through the wrapper = %v, direct %v", shards, p2, p1)
		}
		all, _ := ts.LoadAll("a", "")
		if len(all) != 2 {
			t.Errorf("shards=%d: LoadAll = %d records, want 2", shards, len(all))
		}

		stats := ts.ShardStats()
		if shards == 0 && stats != nil {
			t.Errorf("plain store: ShardStats = %v, want nil", stats)
		}
		if shards > 0 {
			direct := st.(*history.ShardedStore).ShardStats()
			if len(stats) != shards || !reflect.DeepEqual(stats, direct) {
				t.Errorf("ShardStats through the wrapper = %v, direct %v", stats, direct)
			}
		}

		names := map[string]int{}
		for _, s := range rec.take() {
			names[s.Name]++
		}
		for name, n := range map[string]int{
			"history.save": 2, "history.putbatch": 1, "history.load": 2, "history.query": 1,
			"history.persistent": 1, "history.loadall": 1, "backend.put": 3,
		} {
			if names[name] != n {
				t.Errorf("shards=%d: %d %s spans, want %d (all: %v)", shards, names[name], name, n, names)
			}
		}
	}
}

// A failing backend's error must come through the Backend decorator
// unchanged, still recognisable as a backend failure.
func TestTracedBackendPassesErrorsThrough(t *testing.T) {
	rec := newRecorder()
	rec.enabled.Store(true)
	st, err := history.OpenStoreDurable(t.TempDir(), history.DurableOptions{
		Create: true,
		Wrap: func(b history.Backend) history.Backend {
			return &tracedBackend{rec: rec, Backend: history.NewFaultBackend(b, history.FaultConfig{Seed: 1, ENOSPCRate: 1})}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = st.Save(testRecord("a", "", "r1"))
	if err == nil || !history.IsBackendError(err) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Save over a full device = %v, want a backend error wrapping ENOSPC", err)
	}
	if st.Len() != 0 {
		t.Errorf("a rejected record was indexed")
	}
	if spans := rec.take(); len(spans) != 1 || spans[0].Name != "backend.put" {
		t.Errorf("spans = %+v, want one backend.put", spans)
	}
}
