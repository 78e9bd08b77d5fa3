package server

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/history"
)

// shardedFaultServer builds a server over an on-disk, journaled 4-shard
// store (SyncNone) with a fault injector under every shard.
func shardedFaultServer(t *testing.T, opts Options) (*Server, []*history.Faults) {
	t.Helper()
	faults := make([]*history.Faults, 4)
	for i := range faults {
		faults[i] = history.NewFaults(history.FaultConfig{Seed: int64(i)})
	}
	st, err := history.OpenSharded(t.TempDir(), 4, history.DurableOptions{
		Create:                true,
		WAL:                   true,
		WALOptions:            history.WALOptions{Sync: history.SyncNone},
		ShardBreakerThreshold: 2,
		Faults:                func(shard int) *history.Faults { return faults[shard] },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return New(harness.NewEnv(st), opts), faults
}

// putPoisson PUTs a minimal valid record with one true result, so
// queries have something to merge.
func putPoisson(t *testing.T, h http.Handler, version, runID string, val float64) *http.Response {
	t.Helper()
	rec := &history.RunRecord{
		App: "poisson", Version: version, RunID: runID, Duration: 100,
		Results: []history.NodeResult{{
			Hyp: "ExcessiveSyncWaitingTime", Focus: "</Code,/Machine,/Process,/SyncObject>",
			State: "true", Value: val, Threshold: 0.2, ConcludedAt: 5, Priority: "medium",
		}},
		PairsTested: 1,
		TrueCount:   1,
	}
	body, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := doReq(t, h, http.MethodPut, "/api/v1/run", string(body))
	return resp
}

// queryVersions returns the version of every hit of one query call plus
// the decoded body for determinism comparisons.
func queryVersions(t *testing.T, h http.Handler) ([]string, map[string]any) {
	t.Helper()
	resp, body := doReq(t, h, http.MethodGet, "/api/v1/query?app=poisson", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d, body %v", resp.StatusCode, body)
	}
	var versions []string
	for _, raw := range body["hits"].([]any) {
		hit := raw.(map[string]any)
		versions = append(versions, hit["version"].(string))
	}
	return versions, body
}

// TestShardedPartialFailure walks the sharded degradation ladder over
// HTTP under the shards' fault injectors: one shard's disk dies, writes
// to its keyspace answer 503 + Retry-After, scatter reads keep answering
// deterministically from the surviving shards, the daemon itself stays
// (or returns) healthy because the other shards serve, and the existing
// health probe revives the shard once its disk heals — no restart
// anywhere.
func TestShardedPartialFailure(t *testing.T) {
	srv, faults := shardedFaultServer(t, Options{Sessions: 1, BreakerThreshold: 2, BreakerCooldown: time.Minute})
	clock := time.Unix(9000, 0)
	srv.now = func() time.Time { return clock }
	h := srv.Handler()

	// Versions A, B, G, H land on shards 3, 2, 0, 1 (pinned by the
	// history package's routing test), covering the whole ring.
	seeded := []string{"A", "B", "G", "H"}
	for i, v := range seeded {
		if resp := putPoisson(t, h, v, "r1", 0.4+float64(i)/10); resp.StatusCode != http.StatusOK {
			t.Fatalf("seed put %s: status %d", v, resp.StatusCode)
		}
	}
	if versions, _ := queryVersions(t, h); len(versions) != len(seeded) {
		t.Fatalf("baseline query returned %v, want one hit per seeded version", versions)
	}
	downShard := history.ShardForKey("poisson", "B", 4)

	// Shard B's backend dies. Each write to its keyspace is 503 +
	// Retry-After; the second trips both the shard breaker and the
	// server breaker.
	faults[downShard].SetConfig(history.FaultConfig{ErrRate: 1})
	for i := 0; i < 2; i++ {
		resp := putPoisson(t, h, "B", "r2", 0.5)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("failing put %d: status %d, want 503", i, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("failing put %d: no Retry-After header", i)
		}
	}

	// Scatter reads answer from the surviving shards — version B's
	// records are absent, everything else is served, and two identical
	// queries return identical bodies.
	versions, body1 := queryVersions(t, h)
	for _, v := range versions {
		if v == "B" {
			t.Fatalf("query served version B from a dead shard: %v", versions)
		}
	}
	if len(versions) != len(seeded)-1 {
		t.Fatalf("degraded query returned %v, want the three surviving versions", versions)
	}
	if _, body2 := queryVersions(t, h); !reflect.DeepEqual(body1, body2) {
		t.Errorf("degraded query is not deterministic:\n%v\n%v", body1, body2)
	}
	if resp, body := doReq(t, h, http.MethodGet, "/api/v1/runs", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded runs list: status %d", resp.StatusCode)
	} else if runs := body["runs"].([]any); len(runs) != len(seeded)-1 {
		t.Errorf("degraded runs list = %v, want the surviving shards' records", runs)
	}

	// /statsz exports the shard gauge.
	if st := srv.stats(); !st.Shards[downShard].Degraded {
		t.Errorf("statsz shard %d not degraded: %+v", downShard, st.Shards)
	}

	// A due probe finds the store serving (three live shards), so the
	// daemon returns to ok — one dead shard degrades its keyspace, not
	// the whole service. The shard itself stays down.
	clock = clock.Add(2 * time.Minute)
	if _, body := doReq(t, h, http.MethodGet, "/healthz", ""); body["status"] != "ok" {
		t.Fatalf("health with one dead shard = %v, want ok (others serve)", body)
	}
	if st := srv.stats(); !st.Shards[downShard].Degraded {
		t.Error("health probe revived a still-broken shard")
	}

	// The healthy keyspaces accept writes; the dead shard's keyspace
	// fails fast without touching its backend.
	if resp := putPoisson(t, h, "A", "r2", 0.5); resp.StatusCode != http.StatusOK {
		t.Fatalf("put to healthy shard: status %d, want 200", resp.StatusCode)
	}
	opsBefore := faults[downShard].Counters().Ops
	resp := putPoisson(t, h, "B", "r3", 0.5)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("put to dead shard: status %d, want 503 + Retry-After", resp.StatusCode)
	}
	if ops := faults[downShard].Counters().Ops; ops != opsBefore {
		t.Errorf("write to a down shard touched its backend (%d ops -> %d)", opsBefore, ops)
	}

	// The backend heals. Writes to the shard still fail fast (only a
	// probe re-admits it); two of them re-trip the server breaker, and
	// the next due probe revives the shard and ends degraded mode.
	faults[downShard].SetConfig(history.FaultConfig{})
	for i := 0; i < 2; i++ {
		if resp := putPoisson(t, h, "B", "r3", 0.5); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("pre-revival put %d: status %d, want 503", i, resp.StatusCode)
		}
	}
	clock = clock.Add(2 * time.Minute)
	if _, body := doReq(t, h, http.MethodGet, "/healthz", ""); body["status"] != "ok" {
		t.Fatalf("health after heal = %v", body)
	}
	if st := srv.stats(); st.Shards[downShard].Degraded {
		t.Fatal("shard still degraded after a healthy probe")
	}
	if resp := putPoisson(t, h, "B", "r3", 0.5); resp.StatusCode != http.StatusOK {
		t.Fatalf("put after revival: status %d, want 200", resp.StatusCode)
	}
	versions, _ = queryVersions(t, h)
	counts := map[string]int{}
	for _, v := range versions {
		counts[v]++
	}
	if counts["B"] != 2 {
		t.Errorf("after revival query versions = %v, want both B runs back", versions)
	}
}

// TestShardedStatszOmittedForSingleStore pins the wire shape: a single
// store exports no shards section, so dashboards can key the layout off
// the field's presence.
func TestShardedStatszOmittedForSingleStore(t *testing.T) {
	srv, _ := faultServer(t, Options{Sessions: 1})
	data, err := json.Marshal(srv.stats())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if _, present := m["shards"]; present {
		t.Errorf("single-store statsz carries a shards section: %s", data)
	}
}
