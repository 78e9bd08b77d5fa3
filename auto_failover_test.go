package repro

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
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

// The self-driving failover harnesses: a real replicated pcd pair under
// automatic failover. TestKillPrimaryAutoFailover SIGKILLs the primary
// mid-load with NO operator promote — the lease-based failure detector
// must elect and promote the follower on its own within three lease
// TTLs, lose nothing acked, and fence the revived zombie with the typed
// 409. TestFailoverFlapping runs three kill/revive cycles and demands
// exactly one writable node at every step, a monotonically increasing
// epoch, and a final keyspace byte-identical to a never-faulted run.
// internal/replica tests the detector, election, fencing, and rejoin
// layers in isolation; these are the end-to-end proofs.

// autoLeaseTTL is the harness's failure-detection window. Promotion is
// asserted within three of these, so it balances test runtime against
// scheduler-noise headroom under -race.
const autoLeaseTTL = 500 * time.Millisecond

// freePort reserves a listenable TCP port and releases it for the
// daemon to bind. Auto-failover nodes must know each other's URLs
// before starting (-advertise, -peers), and a revived zombie must come
// back on the address the cluster remembers — so ports are chosen up
// front instead of letting -addr :0 pick.
func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	return port
}

// putUntilWritable retries one idempotent write until the cluster
// accepts it — the moment of acceptance is the moment the failover
// completed — and fails the test if that takes past deadline.
func putUntilWritable(t *testing.T, ctx context.Context, cl *client.Client, rec *history.RunRecord, deadline time.Time, what string) {
	t.Helper()
	var lastErr error
	for {
		if _, lastErr = cl.PutRun(ctx, rec); lastErr == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: not writable by the deadline (last error: %v)", what, lastErr)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestKillPrimaryAutoFailover is the tentpole's acceptance harness: a
// two-shard auto-failover pair takes mixed load, the primary is
// SIGKILLed mid-stream, and with no promote call from anyone the
// follower must become writable within three lease TTLs. Every write
// the dead primary acknowledged must survive byte-identically, the full
// workload's query results must match a never-faulted daemon, and the
// revived old primary must demote itself at startup and refuse a write
// with the typed fencing error.
func TestKillPrimaryAutoFailover(t *testing.T) {
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
	// Indices 0..total-1 are the mixed load; index total is the failover
	// probe — the write retried across the outage whose acceptance marks
	// the follower's self-promotion.
	const total = 30
	record := func(i int) *history.RunRecord {
		rec := *res.Record
		rec.RunID = fmt.Sprintf("w%04d", i)
		if i%2 == 1 {
			rec.Version = "B"
		}
		return &rec
	}

	// Reference: the same workload on a daemon that is never faulted.
	refStore := filepath.Join(t.TempDir(), "ref-store")
	ref := startDaemon(t, bin, "-store", refStore, "-addr", "127.0.0.1:0", "-create", "-shards", "2")
	refCl := client.New(ref.url)
	if err := refCl.WaitHealthy(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= total; i++ {
		if _, err := refCl.PutRun(ctx, record(i)); err != nil {
			t.Fatalf("reference put %d: %v", i, err)
		}
	}
	want, err := refCl.QueryRaw(ctx, client.QueryParams{App: "poisson"})
	if err != nil {
		t.Fatal(err)
	}
	ref.stop(t)

	// The auto-failover pair on pre-chosen ports: each node advertises
	// the URL the other will reach it at, and the primary's port is what
	// the zombie revives on. The follower gets no -peers — its electorate
	// is the other followers (none here), not the primary it watches.
	primPort, folPort := freePort(t), freePort(t)
	primAddr := fmt.Sprintf("127.0.0.1:%d", primPort)
	folAddr := fmt.Sprintf("127.0.0.1:%d", folPort)
	primURL, folURL := "http://"+primAddr, "http://"+folAddr
	primStore := filepath.Join(t.TempDir(), "prim-store")
	folStore := filepath.Join(t.TempDir(), "fol-store")
	ttl := autoLeaseTTL.String()
	prim := startDaemon(t, bin,
		"-store", primStore, "-addr", primAddr, "-create",
		"-shards", "2", "-replicas", "1", "-auto-failover",
		"-lease-ttl", ttl, "-advertise", primURL, "-peers", folURL)
	fol := startDaemon(t, bin,
		"-store", folStore, "-addr", folAddr, "-create",
		"-follow", primURL, "-auto-failover",
		"-lease-ttl", ttl, "-advertise", folURL)
	primCl := client.New(prim.url)
	folCl := client.New(fol.url)
	if err := primCl.WaitHealthy(ctx); err != nil {
		t.Fatal(err)
	}
	if err := folCl.WaitHealthy(ctx); err != nil {
		t.Fatal(err)
	}
	waitReplication(t, prim.url, "follower attached on every shard",
		func(sh replica.ShardReplStats) bool { return len(sh.Followers) > 0 })
	epoch0 := daemonStats(t, prim.url).Replication.Epoch

	// Mixed load against the primary; SIGKILL arrives asynchronously
	// mid-stream. Only an acknowledged write creates an obligation.
	acked := map[int][]byte{}
	next := 0
	killAt := time.After(300 * time.Millisecond)
	killed := false
	var killedTime time.Time
	for !killed && next < total {
		select {
		case <-killAt:
			prim.kill(t)
			killed, killedTime = true, time.Now()
		default:
			rec := record(next)
			if _, err := primCl.PutRun(ctx, rec); err == nil {
				data, merr := server.MarshalCanonical(rec)
				if merr != nil {
					t.Fatal(merr)
				}
				acked[next] = data
			}
			if next%5 == 4 {
				for i := next; i >= 0; i-- {
					if acked[i] == nil {
						continue
					}
					rec := record(i)
					if _, err := folCl.GetRun(ctx, "poisson", rec.Version+":"+rec.RunID); err != nil {
						t.Fatalf("read of acked write %s from the follower failed mid-load: %v", rec.RunID, err)
					}
					break
				}
			}
			next++
		}
	}
	if !killed {
		prim.kill(t)
		killedTime = time.Now()
	}
	if len(acked) == 0 {
		t.Fatal("no write was ever acknowledged before the kill; the harness proved nothing")
	}

	// The primary is dead and nobody calls promote. The probe write must
	// be accepted — by the follower deciding, on its own, that it is the
	// primary now — within three lease TTLs of the kill.
	probe := record(total)
	putUntilWritable(t, ctx, folCl, probe, killedTime.Add(3*autoLeaseTTL),
		"automatic failover")
	t.Logf("cluster writable again %v after SIGKILL (lease TTL %v)", time.Since(killedTime), autoLeaseTTL)
	probeBytes, err := server.MarshalCanonical(probe)
	if err != nil {
		t.Fatal(err)
	}
	acked[total] = probeBytes
	stats := daemonStats(t, fol.url).Replication
	if stats == nil || stats.Role != "primary" {
		t.Fatalf("follower accepted a write but does not report the primary role: %+v", stats)
	}
	if stats.Epoch <= epoch0 {
		t.Fatalf("self-promotion did not advance the epoch: %d -> %d", epoch0, stats.Epoch)
	}

	// Zero acked-write loss: every write the dead primary acknowledged is
	// on the self-promoted follower byte-identically.
	for i, wantRec := range acked {
		rec := record(i)
		got, err := folCl.GetRun(ctx, "poisson", rec.Version+":"+rec.RunID)
		if err != nil {
			t.Fatalf("acked write %s lost across automatic failover: %v", rec.RunID, err)
		}
		data, err := server.MarshalCanonical(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, wantRec) {
			t.Fatalf("record %s differs from its acked bytes after automatic failover", rec.RunID)
		}
	}

	// Land the rest of the workload on the new primary.
	for i := 0; i < total; i++ {
		if acked[i] != nil {
			continue
		}
		if _, err := folCl.PutRun(ctx, record(i)); err != nil {
			t.Fatalf("write %d refused after self-promotion: %v", i, err)
		}
	}
	got, err := folCl.QueryRaw(ctx, client.QueryParams{App: "poisson"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("failed-over query results differ from the unfaulted run:\n got: %s\nwant: %s", got, want)
	}

	// Revive the old primary on its original port with its original
	// role flags. The startup rejoin handshake must discover the newer
	// epoch and demote it — and a write against the zombie must be
	// refused with the typed fencing error, not accepted and not lost in
	// a generic failure.
	zombie := startDaemon(t, bin,
		"-store", primStore, "-addr", primAddr,
		"-replicas", "1", "-auto-failover",
		"-lease-ttl", ttl, "-advertise", primURL, "-peers", folURL)
	zCl := client.New(zombie.url)
	if err := zCl.WaitHealthy(ctx); err != nil {
		t.Fatal(err)
	}
	zrec := record(0)
	zrec.RunID = "zombie-write"
	_, zerr := zCl.PutRun(ctx, zrec)
	if zerr == nil {
		t.Fatal("the revived old primary accepted a write: split brain")
	}
	if !errors.Is(zerr, client.ErrFenced) {
		t.Fatalf("zombie write refused with %v, want errors.Is(err, client.ErrFenced)", zerr)
	}
	if zstats := daemonStats(t, zombie.url).Replication; zstats == nil || zstats.Role != "follower" {
		t.Fatalf("revived old primary reports role %+v, want follower after rejoin", zstats)
	}

	// The zombie catches up as a follower of the node that fenced it;
	// once its ack reaches the head it serves the failover-era writes.
	waitReplication(t, fol.url, "rejoined old primary caught up",
		func(sh replica.ShardReplStats) bool {
			if sh.Promoted {
				return true
			}
			for _, f := range sh.Followers {
				if f.ID == primURL && f.AckSeq == sh.HeadSeq {
					return true
				}
			}
			return false
		})
	zgot, err := zCl.GetRun(ctx, "poisson", probe.Version+":"+probe.RunID)
	if err != nil {
		t.Fatalf("failover-era write not readable from the rejoined node: %v", err)
	}
	if data, _ := server.MarshalCanonical(zgot); !bytes.Equal(data, probeBytes) {
		t.Fatal("rejoined node serves different bytes for the failover probe than were acknowledged")
	}

	// Drain clean. The new primary's store must verify clean; the
	// zombie's store took a SIGKILL and a divergence quarantine — crash
	// residue is legal, corruption is not, and the cross-replica check
	// must find no divergence inside the live keyspace.
	zombie.stop(t)
	fol.stop(t)
	if code, out := fsck(t, bin, folStore, false); code != 0 {
		t.Fatalf("pcfsck grades the self-promoted store %d:\n%s", code, out)
	}
	if code, out := fsck(t, bin, primStore, false); code == 2 {
		t.Fatalf("pcfsck grades the rejoined zombie store corrupt:\n%s", out)
	}
	if code, out := fsckReplica(t, bin, primStore, folStore); code == 2 {
		t.Fatalf("cross-replica verification found divergence after rejoin:\n%s", out)
	}
}

// TestFailoverFlapping alternates the primary role across two nodes
// through three SIGKILL/revive cycles under load. At every step exactly
// one node accepts writes (the survivor's self-promotion opens its
// keyspace; the revived zombie's startup rejoin fences it shut), the
// cluster epoch rises with every handover, nothing acknowledged is ever
// lost, and the final keyspace — on both nodes — answers queries
// byte-identically to a daemon that never crashed.
func TestFailoverFlapping(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and kills processes repeatedly")
	}
	bin := buildTools(t, "pcd", "pcfsck")
	ctx := context.Background()

	ap, err := app.Build("poisson", "A", app.Options{NodeOffset: 1, PidBase: 4000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.DefaultSessionConfig()
	cfg.MaxTime = 5000
	res, err := harness.RunSession(ap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 8 records per cycle across 3 cycles; versions alternate so the
	// load spans both shard keyspaces.
	const cycles, perCycle = 3, 8
	const total = cycles * perCycle
	record := func(i int) *history.RunRecord {
		rec := *res.Record
		rec.RunID = fmt.Sprintf("f%04d", i)
		if i%2 == 1 {
			rec.Version = "B"
		}
		return &rec
	}

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

	// Two nodes on pre-chosen ports. Revives pass no -peers: the rejoin
	// handshake finds the winner through the store's persisted follower
	// registry (PEERS.json), which both sides accumulate as they attach
	// to each other across cycles.
	type fnode struct {
		d     *daemon
		store string
		addr  string
		url   string
	}
	mk := func(name string) *fnode {
		port := freePort(t)
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		return &fnode{store: filepath.Join(t.TempDir(), name), addr: addr, url: "http://" + addr}
	}
	na, nb := mk("store-a"), mk("store-b")
	ttl := autoLeaseTTL.String()
	na.d = startDaemon(t, bin,
		"-store", na.store, "-addr", na.addr, "-create",
		"-shards", "2", "-replicas", "1", "-auto-failover",
		"-lease-ttl", ttl, "-advertise", na.url)
	nb.d = startDaemon(t, bin,
		"-store", nb.store, "-addr", nb.addr, "-create",
		"-follow", na.url, "-auto-failover",
		"-lease-ttl", ttl, "-advertise", nb.url)
	if err := client.New(na.d.url).WaitHealthy(ctx); err != nil {
		t.Fatal(err)
	}
	if err := client.New(nb.d.url).WaitHealthy(ctx); err != nil {
		t.Fatal(err)
	}
	waitReplication(t, na.d.url, "follower attached on every shard",
		func(sh replica.ShardReplStats) bool { return len(sh.Followers) > 0 })

	// caughtUp accepts the merged /statsz shard gauges of a promoted
	// node: its own promoted shards pass outright, and its standby
	// primary's shards pass once the rejoined follower's ack is at head.
	caughtUp := func(sh replica.ShardReplStats) bool {
		if sh.Promoted {
			return true
		}
		for _, f := range sh.Followers {
			if f.AckSeq == sh.HeadSeq {
				return true
			}
		}
		return false
	}

	cur, other := na, nb
	lastEpoch := daemonStats(t, na.d.url).Replication.Epoch
	next := 0
	for cycle := 0; cycle < cycles; cycle++ {
		// Gated writes against the current primary; each ack means the
		// record reached the other node before the coming kill.
		curCl := client.New(cur.d.url)
		for k := 0; k < 3; k++ {
			if _, err := curCl.PutRun(ctx, record(next)); err != nil {
				t.Fatalf("cycle %d: gated write %d refused: %v", cycle, next, err)
			}
			next++
		}
		cur.d.kill(t)
		killedTime := time.Now()

		// The survivor must self-promote and accept the next write within
		// three lease TTLs — no promote call, ever.
		otherCl := client.New(other.d.url)
		putUntilWritable(t, ctx, otherCl, record(next), killedTime.Add(3*autoLeaseTTL),
			fmt.Sprintf("cycle %d failover", cycle))
		next++
		stats := daemonStats(t, other.d.url).Replication
		if stats == nil || stats.Role != "primary" {
			t.Fatalf("cycle %d: survivor accepted a write without the primary role: %+v", cycle, stats)
		}
		if stats.Epoch <= lastEpoch {
			t.Fatalf("cycle %d: epoch not monotone across handover: %d -> %d", cycle, lastEpoch, stats.Epoch)
		}
		lastEpoch = stats.Epoch

		// Zero acked-write loss: everything acknowledged so far is on the
		// survivor byte-identically.
		for i := 0; i < next; i++ {
			rec := record(i)
			wantRec, err := server.MarshalCanonical(rec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := otherCl.GetRun(ctx, "poisson", rec.Version+":"+rec.RunID)
			if err != nil {
				t.Fatalf("cycle %d: acked write %s lost across handover: %v", cycle, rec.RunID, err)
			}
			if data, _ := server.MarshalCanonical(got); !bytes.Equal(data, wantRec) {
				t.Fatalf("cycle %d: record %s differs from its acked bytes", cycle, rec.RunID)
			}
		}
		// The rest of the cycle's load lands on the new primary.
		for k := 0; k < 4; k++ {
			if _, err := otherCl.PutRun(ctx, record(next)); err != nil {
				t.Fatalf("cycle %d: post-failover write %d refused: %v", cycle, next, err)
			}
			next++
		}

		// Revive the corpse on its original port. The rejoin handshake
		// must demote it, the typed fencing error must refuse its writes
		// (exactly one writable node), and it must catch back up before
		// the next handover makes it the primary again.
		cur.d = startDaemon(t, bin,
			"-store", cur.store, "-addr", cur.addr,
			"-replicas", "1", "-auto-failover",
			"-lease-ttl", ttl, "-advertise", cur.url)
		zCl := client.New(cur.d.url)
		if err := zCl.WaitHealthy(ctx); err != nil {
			t.Fatal(err)
		}
		zrec := record(0)
		zrec.RunID = fmt.Sprintf("flap-zombie-%d", cycle)
		_, zerr := zCl.PutRun(ctx, zrec)
		if zerr == nil {
			t.Fatalf("cycle %d: revived node accepted a write: two writable primaries", cycle)
		}
		if !errors.Is(zerr, client.ErrFenced) {
			t.Fatalf("cycle %d: zombie write refused with %v, want errors.Is ErrFenced", cycle, zerr)
		}
		waitReplication(t, other.d.url, fmt.Sprintf("cycle %d: rejoined node caught up", cycle), caughtUp)
		cur, other = other, cur
	}

	// Full workload landed across three handovers: both the final
	// primary and the rejoined follower must answer byte-identically to
	// the never-faulted reference.
	if next != total {
		t.Fatalf("harness accounting: landed %d of %d records", next, total)
	}
	for _, n := range []*fnode{cur, other} {
		got, err := client.New(n.d.url).QueryRaw(ctx, client.QueryParams{App: "poisson"})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("query results on %s differ from the unfaulted run after flapping:\n got: %s\nwant: %s", n.url, got, want)
		}
	}

	// Drain clean and verify: SIGKILLs and divergence quarantines leave
	// at worst residue (grade 1); corruption or live-keyspace divergence
	// fails. other is the rejoined follower of cur, the final primary.
	other.d.stop(t)
	cur.d.stop(t)
	if code, out := fsck(t, bin, cur.store, false); code == 2 {
		t.Fatalf("pcfsck grades the final primary store corrupt:\n%s", out)
	}
	if code, out := fsck(t, bin, other.store, false); code == 2 {
		t.Fatalf("pcfsck grades the rejoined follower store corrupt:\n%s", out)
	}
	if code, out := fsckReplica(t, bin, other.store, cur.store); code == 2 {
		t.Fatalf("cross-replica verification found divergence after flapping:\n%s", out)
	}
}
