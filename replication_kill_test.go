package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/client"
	"repro/internal/harness"
	"repro/internal/history"
	"repro/internal/replica"
	"repro/internal/server"
)

// The kill-the-primary harness: a real replicated pair — sharded pcd
// primary, pcd follower — takes sustained mixed load, the primary is
// SIGKILLed mid-stream, the follower is promoted, and the keyspace must
// come through with zero acknowledged-write loss and query results
// byte-identical to a run that was never faulted. The companion test
// SIGKILLs the follower between a frame apply and its offset persist
// and requires idempotent re-apply to converge. These are the PR's
// end-to-end proofs; internal/replica tests the layers in isolation.

// fsckReplica runs pcfsck -store dir -primary primaryDir and returns
// its exit code and output.
func fsckReplica(t *testing.T, bin, dir, primaryDir string) (int, string) {
	t.Helper()
	out, err := exec.Command(filepath.Join(bin, "pcfsck"), "-store", dir, "-primary", primaryDir).CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("pcfsck -primary: %v\n%s", err, out)
	}
	return ee.ExitCode(), string(out)
}

// daemonStats fetches and decodes a daemon's /statsz.
func daemonStats(t *testing.T, url string) *server.StatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return &stats
}

// waitReplication polls a primary's /statsz until ok accepts every
// shard's replication gauges.
func waitReplication(t *testing.T, url, what string, ok func(replica.ShardReplStats) bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		stats := daemonStats(t, url)
		if r := stats.Replication; r != nil && len(r.Shards) > 0 {
			good := true
			for _, sh := range r.Shards {
				if !ok(sh) {
					good = false
					break
				}
			}
			if good {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication never reached state: %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// promoteAll asks a follower daemon to take over every shard.
func promoteAll(t *testing.T, folURL string, wantShards int) {
	t.Helper()
	body, err := json.Marshal(replica.PromoteRequest{Shard: -1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(folURL+"/api/v1/replica/promote", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr replica.PromoteResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(pr.Promoted) != wantShards {
		t.Fatalf("promote all: HTTP %d, promoted %v, want %d shards", resp.StatusCode, pr.Promoted, wantShards)
	}
}

// TestKillPrimaryFailover is the acceptance harness: a two-shard
// primary with one follower takes mixed writes and reads, the primary
// is SIGKILLed mid-stream, the follower is promoted and absorbs the
// rest of the load. Every write acknowledged by the primary must be
// readable from the follower byte-identically (the semi-sync gate's
// guarantee), and once the full workload lands, the follower's merged
// query results must be byte-identical to a daemon that never crashed.
func TestKillPrimaryFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and kills processes")
	}
	bin := buildTools(t, "pcd", "pcfsck")
	ctx := context.Background()

	// One real session provides a valid record to clone per write; the
	// version alternates A/B so the workload spans both shard keyspaces.
	a, err := app.Build("poisson", "A", app.Options{NodeOffset: 1, PidBase: 4000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.DefaultSessionConfig()
	cfg.MaxTime = 5000
	res, err := harness.RunSession(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const total = 30
	record := func(i int) *history.RunRecord {
		rec := *res.Record
		rec.RunID = fmt.Sprintf("w%04d", i)
		if i%2 == 1 {
			rec.Version = "B"
		}
		return &rec
	}

	// Reference: the same 30 records on a daemon that is never faulted,
	// queried once for the canonical result bytes.
	refStore := filepath.Join(t.TempDir(), "ref-store")
	ref := startDaemon(t, bin, "-store", refStore, "-addr", "127.0.0.1:0", "-create", "-shards", "2")
	refCl := client.New(ref.url)
	if err := refCl.WaitHealthy(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		if _, err := refCl.PutRun(ctx, record(i)); err != nil {
			t.Fatalf("reference put %d: %v", i, err)
		}
	}
	want, err := refCl.QueryRaw(ctx, client.QueryParams{App: "poisson"})
	if err != nil {
		t.Fatal(err)
	}
	ref.stop(t)

	// The replicated pair. The primary arms the semi-sync gate
	// (-replicas 1); the follower adopts the primary's shard layout.
	primStore := filepath.Join(t.TempDir(), "prim-store")
	folStore := filepath.Join(t.TempDir(), "fol-store")
	prim := startDaemon(t, bin,
		"-store", primStore, "-addr", "127.0.0.1:0", "-create",
		"-shards", "2", "-replicas", "1", "-promote")
	fol := startDaemon(t, bin,
		"-store", folStore, "-addr", "127.0.0.1:0", "-create",
		"-follow", prim.url)
	primCl := client.New(prim.url)
	folCl := client.New(fol.url)
	if err := primCl.WaitHealthy(ctx); err != nil {
		t.Fatal(err)
	}
	if err := folCl.WaitHealthy(ctx); err != nil {
		t.Fatal(err)
	}
	// Until the follower's first pull the gate degrades to async acks;
	// wait for it to attach so every acknowledged write below is gated.
	waitReplication(t, prim.url, "follower attached on every shard",
		func(sh replica.ShardReplStats) bool { return len(sh.Followers) > 0 })

	// Mixed load against the primary; SIGKILL arrives asynchronously
	// mid-stream. Only an acknowledged write creates an obligation — and
	// the gate means each one reached the follower before its ack.
	acked := map[int][]byte{} // index -> canonical record bytes as acked
	next := 0
	killAt := time.After(300 * time.Millisecond)
	killed := false
	for !killed && next < total {
		select {
		case <-killAt:
			prim.kill(t)
			killed = true
		default:
			rec := record(next)
			if _, err := primCl.PutRun(ctx, rec); err == nil {
				data, merr := server.MarshalCanonical(rec)
				if merr != nil {
					t.Fatal(merr)
				}
				acked[next] = data
			}
			// Every few writes, read an acked record back from the
			// follower: replicas serve reads while replicating.
			if next%5 == 4 {
				for i := next; i >= 0; i-- {
					if acked[i] == nil {
						continue
					}
					rec := record(i)
					got, err := folCl.GetRun(ctx, "poisson", rec.Version+":"+rec.RunID)
					if err != nil {
						t.Fatalf("read of acked write %s from the follower failed mid-load: %v", rec.RunID, err)
					}
					if data, _ := server.MarshalCanonical(got); !bytes.Equal(data, acked[i]) {
						t.Fatalf("follower serves different bytes for %s than were acknowledged", rec.RunID)
					}
					break
				}
			}
			next++
		}
	}
	if !killed {
		prim.kill(t)
	}
	if len(acked) == 0 {
		t.Fatal("no write was ever acknowledged before the kill; the harness proved nothing")
	}

	// The primary is gone. Reads must still serve from the follower —
	// before any promotion.
	for i := 0; i < total; i++ {
		if acked[i] == nil {
			continue
		}
		rec := record(i)
		if _, err := folCl.GetRun(ctx, "poisson", rec.Version+":"+rec.RunID); err != nil {
			t.Fatalf("follower stopped serving reads during the outage (%s): %v", rec.RunID, err)
		}
		break
	}

	// Whole-primary death: promote every shard, then verify zero
	// acked-write loss — each write the dead primary acknowledged must be
	// on the follower byte-identically.
	promoteAll(t, fol.url, 2)
	for i, wantRec := range acked {
		rec := record(i)
		got, err := folCl.GetRun(ctx, "poisson", rec.Version+":"+rec.RunID)
		if err != nil {
			t.Fatalf("acked write %s lost after primary SIGKILL + promotion: %v", rec.RunID, err)
		}
		data, err := server.MarshalCanonical(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, wantRec) {
			t.Fatalf("record %s differs from its acked bytes after failover", rec.RunID)
		}
	}

	// Writes resume against the promoted follower: land the rest of the
	// workload (including anything that raced the kill unacknowledged).
	for i := 0; i < total; i++ {
		if acked[i] != nil {
			continue
		}
		rec := record(i)
		if _, err := folCl.PutRun(ctx, rec); err != nil {
			t.Fatalf("write %s refused after promotion: %v", rec.RunID, err)
		}
		data, err := server.MarshalCanonical(rec)
		if err != nil {
			t.Fatal(err)
		}
		acked[i] = data
	}

	// With the full workload landed, the failed-over keyspace must answer
	// queries byte-identically to the never-faulted reference.
	got, err := folCl.QueryRaw(ctx, client.QueryParams{App: "poisson"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("failed-over query results differ from the unfaulted run:\n got: %s\nwant: %s", got, want)
	}

	// The follower drains clean and its store verifies clean. The
	// primary's store took a SIGKILL: crash residue (grade 1) is legal,
	// corruption is not — and the cross-replica check must find no
	// divergence (post-promotion extras grade as residue, not corrupt).
	fol.stop(t)
	if code, out := fsck(t, bin, folStore, false); code != 0 {
		t.Fatalf("pcfsck grades the failed-over follower store %d:\n%s", code, out)
	}
	if code, out := fsck(t, bin, primStore, false); code == 2 {
		t.Fatalf("pcfsck grades the killed primary store corrupt:\n%s", out)
	}
	if code, out := fsckReplica(t, bin, folStore, primStore); code == 2 {
		t.Fatalf("cross-replica verification found divergence:\n%s", out)
	}
}

// TestKillFollowerMidApply SIGKILLs a follower between a frame apply
// and its offset ack — simulated exactly, by rewinding the persisted
// replica position after the kill, which is what a crash in that window
// leaves behind — restarts it, and requires idempotent re-apply to
// converge to a store byte-identical to the primary's fold: pcfsck
// -primary must grade the pair perfectly clean.
func TestKillFollowerMidApply(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and kills processes")
	}
	bin := buildTools(t, "pcd", "pcfsck")
	ctx := context.Background()

	a, err := app.Build("poisson", "A", app.Options{NodeOffset: 1, PidBase: 4000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.DefaultSessionConfig()
	cfg.MaxTime = 5000
	res, err := harness.RunSession(a, cfg)
	if err != nil {
		t.Fatal(err)
	}

	primStore := filepath.Join(t.TempDir(), "prim-store")
	folStore := filepath.Join(t.TempDir(), "fol-store")
	prim := startDaemon(t, bin,
		"-store", primStore, "-addr", "127.0.0.1:0", "-create", "-replicas", "1")
	fol := startDaemon(t, bin,
		"-store", folStore, "-addr", "127.0.0.1:0", "-create", "-follow", prim.url)
	primCl := client.New(prim.url)
	if err := primCl.WaitHealthy(ctx); err != nil {
		t.Fatal(err)
	}
	waitReplication(t, prim.url, "follower attached",
		func(sh replica.ShardReplStats) bool { return len(sh.Followers) > 0 })

	const phase1 = 12
	put := func(cl *client.Client, i int) {
		t.Helper()
		rec := *res.Record
		rec.RunID = fmt.Sprintf("r%04d", i)
		if _, err := cl.PutRun(ctx, &rec); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < phase1; i++ {
		put(primCl, i)
	}
	// Every write above was gated on the follower's ack, so its applied
	// position has reached the head. SIGKILL it there.
	waitReplication(t, prim.url, "follower caught up",
		func(sh replica.ShardReplStats) bool {
			for _, f := range sh.Followers {
				if f.AckSeq == sh.HeadSeq {
					return true
				}
			}
			return false
		})
	// The follower's position as its info handshake reports it, read
	// before the kill.
	resp, err := http.Get(fol.url + "/api/v1/replica/info")
	if err != nil {
		t.Fatal(err)
	}
	var info replica.InfoResponse
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if info.Shards != 1 || info.AppliedSeq < phase1 {
		t.Fatalf("follower info: %d shards, applied_seq %d; want 1 shard at >= %d", info.Shards, info.AppliedSeq, phase1)
	}
	fol.kill(t)

	// A crash between the apply and the position persist leaves records
	// on disk that the persisted position does not yet admit to.
	// Reproduce that window deterministically: rewind the position while
	// keeping the applied records. The position lives in STATE.json's
	// applied_seq and, once the follower has applied a pull, in POSITION
	// (FORMATS.md); the rewind removes POSITION and sets applied_seq to
	// half the position the follower reported.
	statePath := filepath.Join(folStore, "replica", "STATE.json")
	data, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	var state map[string]any
	if err := json.Unmarshal(data, &state); err != nil {
		t.Fatal(err)
	}
	state["applied_seq"] = info.AppliedSeq / 2
	if data, err = json.Marshal(state); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(statePath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(folStore, "replica", "POSITION")); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}

	// Restart the follower. It resumes from the rewound position, and the
	// primary's frame ring re-delivers entries already applied: re-apply
	// must be idempotent (same entries, same bytes).
	fol2 := startDaemon(t, bin,
		"-store", folStore, "-addr", "127.0.0.1:0", "-follow", prim.url)
	folCl := client.New(fol2.url)
	if err := folCl.WaitHealthy(ctx); err != nil {
		t.Fatal(err)
	}
	waitReplication(t, prim.url, "restarted follower re-attached and caught up",
		func(sh replica.ShardReplStats) bool {
			for _, f := range sh.Followers {
				if f.ID == fol2.url && f.AckSeq == sh.HeadSeq {
					return true
				}
			}
			return false
		})

	// More gated writes prove the restarted follower is a first-class
	// replica again, not just a reader of old frames.
	const total = phase1 + 3
	for i := phase1; i < total; i++ {
		put(primCl, i)
	}
	waitReplication(t, prim.url, "follower applied the post-restart writes",
		func(sh replica.ShardReplStats) bool {
			for _, f := range sh.Followers {
				if f.ID == fol2.url && f.AckSeq == sh.HeadSeq {
					return true
				}
			}
			return false
		})

	// Convergence, record by record: the follower serves every write
	// byte-identically to what the primary acknowledged.
	for i := 0; i < total; i++ {
		rec := *res.Record
		rec.RunID = fmt.Sprintf("r%04d", i)
		want, err := server.MarshalCanonical(&rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := folCl.GetRun(ctx, "poisson", rec.Version+":"+rec.RunID)
		if err != nil {
			t.Fatalf("record %s missing from the restarted follower: %v", rec.RunID, err)
		}
		data, err := server.MarshalCanonical(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("record %s diverged after idempotent re-apply", rec.RunID)
		}
	}

	// Both stores drain clean, and the cross-replica fold comparison must
	// be perfect: no lag, no extras, no divergence — exit 0.
	fol2.stop(t)
	prim.stop(t)
	if code, out := fsck(t, bin, folStore, false); code != 0 {
		t.Fatalf("pcfsck grades the follower store %d:\n%s", code, out)
	}
	if code, out := fsck(t, bin, primStore, false); code != 0 {
		t.Fatalf("pcfsck grades the primary store %d:\n%s", code, out)
	}
	if code, out := fsckReplica(t, bin, folStore, primStore); code != 0 {
		t.Fatalf("cross-replica verification not clean (exit %d):\n%s", code, out)
	}
}
