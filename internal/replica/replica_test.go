package replica

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/history"
)

// End-to-end replication tests: a real primary store behind httptest
// replication endpoints, a real follower store pulling them, and the
// byte-identity contract checked against the record files on disk.

func rec(app, version, runID string, val float64) *history.RunRecord {
	return &history.RunRecord{
		App: app, Version: version, RunID: runID,
		TrueCount: 1,
		Results: []history.NodeResult{{
			Hyp: "ExcessiveSyncWaitingTime", Focus: "proc:p1", State: "true", Value: val,
		}},
	}
}

// primaryServer exposes p's pull and snapshot endpoints.
func primaryServer(t *testing.T, p *Primary) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/replica/wal", p.HandleWAL)
	mux.HandleFunc("/api/v1/replica/snapshot", p.HandleSnapshot)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// followerServer exposes a follower's promote and op endpoints. The
// *Follower is read through the pointer at request time, so the server
// (and its URL) can exist before the follower does.
func followerServer(t *testing.T, fol **Follower) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/replica/promote", func(w http.ResponseWriter, r *http.Request) {
		(*fol).HandlePromote(w, r)
	})
	mux.HandleFunc("/api/v1/replica/op", func(w http.ResponseWriter, r *http.Request) {
		(*fol).HandleOp(w, r)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// One side's /statsz block.
func (p *Primary) Stats() Stats  { return *(&Node{Primary: p}).Stats() }
func (f *Follower) Stats() Stats { return *(&Node{Follower: f}).Stats() }

// What the election tests read off a follower's table.
func (f *Follower) AnyPromoted() bool  { return len(f.tab.read().owned()) > 0 }
func (f *Follower) Suspect() bool      { return len(f.tab.read().suspects()) > 0 }
func (f *Follower) PrimaryURL() string { return f.tab.read().rows[0].peer }
func (f *Follower) Epoch() (e uint64) {
	for _, r := range f.tab.read().rows {
		e = max(e, r.epoch)
	}
	return e
}

// editState rewrites a table's published state in place of the history
// that would have led there.
func editState(t *table, edit func(*state)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := *t.read()
	s.rows = append([]row(nil), s.rows...)
	edit(&s)
	t.cur.Store(&s)
}

// lapse ages the follower's lease past its window, as if no pull had been
// answered for that long, and lets the monitor's tick notice.
func (f *Follower) lapse() {
	editState(f.tab, func(s *state) {
		for i := range s.rows {
			s.rows[i].heard = time.Time{}
		}
	})
	f.tab.apply(event{kind: evTick})
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// recordFiles maps record basename -> bytes for a single-store dir.
func recordFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[de.Name()] = string(data)
	}
	return out
}

// sameRecords asserts the two stores hold byte-identical record files.
func sameRecords(t *testing.T, primDir, folDir string) {
	t.Helper()
	want, got := recordFiles(t, primDir), recordFiles(t, folDir)
	if len(want) != len(got) {
		t.Fatalf("follower holds %d records, primary %d", len(got), len(want))
	}
	for name, data := range want {
		if got[name] != data {
			t.Errorf("record %s diverges:\nprimary:  %q\nfollower: %q", name, data, got[name])
		}
	}
}

// TestReplicationEndToEnd drives the full pipeline over real HTTP: the
// follower bootstraps from a snapshot (its epoch starts at zero), then
// streams frames for live writes and deletes; the stores converge to
// byte-identical record files; the semi-sync gate releases on the
// follower's ack.
func TestReplicationEndToEnd(t *testing.T) {
	primDir, folDir := t.TempDir(), t.TempDir()
	pst, err := history.OpenStoreDurable(primDir, history.DurableOptions{Create: true, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pst.Close()
	// Pre-replication history: the snapshot bootstrap must carry it over.
	if err := pst.Save(rec("poisson", "A", "r1", 0.4)); err != nil {
		t.Fatal(err)
	}

	prim, err := NewPrimary(pst, 1)
	if err != nil {
		t.Fatal(err)
	}
	tsP := primaryServer(t, prim)

	fst, err := history.OpenStoreDurable(folDir, history.DurableOptions{Create: true, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()
	fol, err := NewFollower(tsP.URL, "http://follower-1", fst)
	if err != nil {
		t.Fatal(err)
	}
	fol.pollWait = 100 * time.Millisecond
	fol.Start()
	defer fol.Stop()

	waitFor(t, 5*time.Second, "snapshot bootstrap", func() bool { return fst.Len() == 1 })

	// Live writes stream as frames; the gated Save only returns once the
	// follower acked, so no polling is needed before the byte check.
	g := Gate(pst, prim)
	for i := 2; i <= 5; i++ {
		if err := g.Save(rec("poisson", "A", fmt.Sprintf("r%d", i), float64(i))); err != nil {
			t.Fatalf("gated save r%d: %v", i, err)
		}
	}
	if err := g.Delete("poisson", "A", "r3"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "delete to replicate", func() bool { return fst.Len() == 4 })
	sameRecords(t, primDir, folDir)

	// The primary's registry saw exactly one follower, fully caught up.
	st := prim.Stats()
	if len(st.Shards) != 1 || len(st.Shards[0].Followers) != 1 {
		t.Fatalf("primary stats = %+v, want one shard with one follower", st)
	}
	f := st.Shards[0].Followers[0]
	if f.ID != "http://follower-1" || f.LagFrames != 0 {
		t.Fatalf("follower registry entry = %+v, want caught up", f)
	}
	if st.GateTimeouts != 0 {
		t.Fatalf("gate timed out %d times during healthy replication", st.GateTimeouts)
	}
}

// TestGateDegradesToAsyncWithoutFollower: before any follower attaches,
// writes must not block or fail — they count as async.
func TestGateDegradesToAsyncWithoutFollower(t *testing.T) {
	pst, err := history.OpenStoreDurable(t.TempDir(), history.DurableOptions{Create: true, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pst.Close()
	prim, err := NewPrimary(pst, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := Gate(pst, prim)
	start := time.Now()
	if err := g.Save(rec("poisson", "A", "r1", 0.4)); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("write blocked with no follower attached")
	}
	if st := prim.Stats(); st.AsyncWrites != 1 {
		t.Fatalf("async_writes = %d, want 1", st.AsyncWrites)
	}
}

// TestGateRefusesWhenFollowerLags: with a follower attached but not
// applying, an acknowledged-write guarantee cannot be given — the gate
// refuses with a transient backend error so the client retries.
func TestGateRefusesWhenFollowerLags(t *testing.T) {
	pst, err := history.OpenStoreDurable(t.TempDir(), history.DurableOptions{Create: true, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pst.Close()
	prim, err := NewPrimary(pst, 1)
	if err != nil {
		t.Fatal(err)
	}
	prim.gate = 50 * time.Millisecond
	prim.logs[0].registerAck("http://stuck-follower", 0)

	g := Gate(pst, prim)
	err = g.Save(rec("poisson", "A", "r1", 0.4))
	if err == nil || !history.IsTransient(err) {
		t.Fatalf("gated save with a stuck follower: err = %v, want transient", err)
	}
	if st := prim.Stats(); st.GateTimeouts != 1 {
		t.Fatalf("gate_timeouts = %d, want 1", st.GateTimeouts)
	}
	// The record itself landed locally — the refusal is about the
	// replication guarantee, and the client's retry is idempotent.
	if _, err := pst.Load("poisson", "A", "r1"); err != nil {
		t.Fatalf("refused write missing locally: %v", err)
	}
}

// TestApplyReplicatedIdempotent: re-applying the same entries (the
// crash-between-apply-and-ack case) converges to the same bytes with no
// error.
func TestApplyReplicatedIdempotent(t *testing.T) {
	dir := t.TempDir()
	fst, err := history.OpenStoreDurable(dir, history.DurableOptions{Create: true, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()

	r := rec("poisson", "A", "r1", 0.4)
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	e := history.WALEntry{Op: history.WALOpPut, App: "poisson", Version: "A", RunID: "r1", Data: data}
	for i := 0; i < 3; i++ {
		if err := fst.ApplyReplicated(e); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	if fst.Len() != 1 {
		t.Fatalf("store holds %d records after triple apply, want 1", fst.Len())
	}
	del := history.WALEntry{Op: history.WALOpDelete, App: "poisson", Version: "A", RunID: "r1"}
	for i := 0; i < 2; i++ {
		if err := fst.ApplyReplicated(del); err != nil {
			t.Fatalf("re-applied delete %d: %v", i, err)
		}
	}
	if fst.Len() != 0 {
		t.Fatalf("store holds %d records after delete, want 0", fst.Len())
	}

	// A put whose payload names a different run than the entry is a
	// corrupted stream, never applied.
	bad := history.WALEntry{Op: history.WALOpPut, App: "poisson", Version: "A", RunID: "other", Data: data}
	if err := fst.ApplyReplicated(bad); err == nil {
		t.Fatal("key-mismatched entry applied")
	}
}

// shardFaults hands shard its injector and every other shard none.
func shardFaults(shard int, faults *history.Faults) func(int) *history.Faults {
	return func(i int) *history.Faults {
		if i != shard {
			return nil
		}
		return faults
	}
}

// shardedPair builds a 2-shard primary with the failover seam armed for
// writes and its follower, both behind real HTTP, and replicates three
// runs each of poisson/A and poisson/B (one version per shard). fault
// is the disk fault injector of the primary's shard that owns poisson/B.
func shardedPair(t *testing.T) (pst, fst *history.ShardedStore, fol *Follower, folURL string, fault *history.Faults) {
	t.Helper()
	down := history.ShardForKey("poisson", "B", 2)
	fault = history.NewFaults(history.FaultConfig{Seed: int64(down)})
	pst, err := history.OpenSharded(t.TempDir(), 2, history.DurableOptions{
		Create:                true,
		WAL:                   true,
		ShardBreakerThreshold: 2,
		Faults:                shardFaults(down, fault),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pst.Close() })
	prim, err := NewPrimary(pst, 1)
	if err != nil {
		t.Fatal(err)
	}
	pst.SetFailover(NewFailover(prim), true)
	tsP := primaryServer(t, prim)

	fst, err = history.OpenSharded(t.TempDir(), 2, history.DurableOptions{Create: true, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fst.Close() })
	tsF := followerServer(t, &fol)
	if fol, err = NewFollower(tsP.URL, tsF.URL, fst); err != nil {
		t.Fatal(err)
	}
	fol.pollWait = 100 * time.Millisecond
	fol.Start()
	t.Cleanup(fol.Stop)

	g := Gate(pst, prim)
	for i := 1; i <= 3; i++ {
		for _, version := range []string{"B", "A"} {
			if err := g.Save(rec("poisson", version, fmt.Sprintf("r%d", i), float64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, 5*time.Second, "follower to catch up", func() bool { return fst.Len() == 6 })
	return pst, fst, fol, tsF.URL, fault
}

// TestShardedFailoverPromotion is the in-process version of the
// kill-the-primary story: a sharded primary replicates to a follower,
// one shard's backend dies, reads for that keyspace fail over to the
// follower, and — with promote on — a write to the dead keyspace
// promotes the follower and succeeds instead of degrading to 503.
func TestShardedFailoverPromotion(t *testing.T) {
	pst, fst, fol, _, fault := shardedPair(t)
	downShard := history.ShardForKey("poisson", "B", 2)

	// Kill the shard owning version B.
	fault.SetConfig(history.FaultConfig{ErrRate: 1})
	for i := 0; i < 2; i++ {
		pst.Save(rec("poisson", "B", "trip", 9)) // trips the breaker
	}
	if !pst.ShardStats()[downShard].Degraded {
		t.Fatalf("shard %d not degraded", downShard)
	}

	// Reads for the dead keyspace serve from the follower.
	got, err := pst.Load("poisson", "B", "r2")
	if err != nil {
		t.Fatalf("failover read: %v", err)
	}
	if got.RunID != "r2" || got.Results[0].Value != 2 {
		t.Fatalf("failover read returned %+v", got)
	}

	// A write to the dead keyspace promotes the follower and lands there.
	if err := pst.Save(rec("poisson", "B", "r4", 4)); err != nil {
		t.Fatalf("failover write: %v", err)
	}
	if _, err := fst.Load("poisson", "B", "r4"); err != nil {
		t.Fatalf("promoted write not on the follower: %v", err)
	}
	if err := fol.Writable("poisson", "B"); err != nil {
		t.Fatalf("follower shard not writable after promotion: %v", err)
	}
	if err := fol.Writable("poisson", "A"); err == nil {
		t.Fatal("unpromoted shard accepts writes")
	}
	if fi := pst.ShardStats()[downShard]; fi.Failover != "promoted" {
		t.Fatalf("shard failover state = %q, want promoted", fi.Failover)
	}

	// The healthy shard is untouched by the failover.
	if _, err := pst.Load("poisson", "A", "r1"); err != nil {
		t.Fatalf("healthy shard read: %v", err)
	}

	// Healing the fault must NOT revive the promoted shard: the follower
	// owns the keyspace until a restart reconciles them (split-brain
	// prevention).
	fault.SetConfig(history.FaultConfig{})
	pst.Ping()
	if fi := pst.ShardStats()[downShard]; fi.Failover != "promoted" {
		t.Fatalf("promoted shard reverted to %q after heal", fi.Failover)
	}
	// And the promoted keyspace keeps serving through the seam.
	if _, err := pst.Load("poisson", "B", "r4"); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
}

// TestFollowerRestartResumesFromState: a restarted follower reloads its
// persisted position and resumes streaming without a new snapshot.
func TestFollowerRestartResumesFromState(t *testing.T) {
	primDir, folDir := t.TempDir(), t.TempDir()
	pst, err := history.OpenStoreDurable(primDir, history.DurableOptions{Create: true, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pst.Close()
	prim, err := NewPrimary(pst, 1)
	if err != nil {
		t.Fatal(err)
	}
	tsP := primaryServer(t, prim)

	fst, err := history.OpenStoreDurable(folDir, history.DurableOptions{Create: true, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	fol, err := NewFollower(tsP.URL, "http://follower-1", fst)
	if err != nil {
		t.Fatal(err)
	}
	fol.pollWait = 100 * time.Millisecond
	fol.Start()

	g := Gate(pst, prim)
	if err := g.Save(rec("poisson", "A", "r1", 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "first apply", func() bool { return fst.Len() == 1 })
	fol.Stop()
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}

	// More writes while the follower is down.
	if err := pst.Save(rec("poisson", "A", "r2", 2)); err != nil {
		t.Fatal(err)
	}

	fst2, err := history.OpenStoreDurable(folDir, history.DurableOptions{Create: true, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fst2.Close()
	fol2, err := NewFollower(tsP.URL, "http://follower-1", fst2)
	if err != nil {
		t.Fatal(err)
	}
	fol2.pollWait = 100 * time.Millisecond
	fol2.Start()
	defer fol2.Stop()

	waitFor(t, 5*time.Second, "catch-up after restart", func() bool { return fst2.Len() == 2 })
	sameRecords(t, primDir, folDir)
}
