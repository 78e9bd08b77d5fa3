package replica

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/history"
)

// A claim covers exactly the shards it was won for: a two-shard
// auto-failover pair, in process and over real HTTP, in which one shard
// is handed over and everything else must stay where it was.

const claimsTTL = 400 * time.Millisecond

// tnode is one node of the pair, assembled the way node.Open does.
type tnode struct {
	url, dir string
	st       *history.ShardedStore
	prim     *Primary
	fol      *Follower // nil on the configured primary
	srv      *httptest.Server
	fault    *history.Faults // the disk of the configured primary's shard of poisson/B
	dead     bool
	mu       sync.Mutex // prim and fol, which the handlers read while follower sets them
}

// roles is the node's primary and follower, as the handlers see them.
func (n *tnode) roles() (*Primary, *Follower) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.prim, n.fol
}

// serve mounts the node's replication endpoints on addr ("" for a fresh
// port) the way the server does.
func (n *tnode) serve(t *testing.T, addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", cmp.Or(addr, "127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	n.url = "http://" + ln.Addr().String()
	mux := http.NewServeMux()
	// The roles arrive after the listener: a follower needs its own URL.
	mux.HandleFunc("/api/v1/replica/info", func(w http.ResponseWriter, r *http.Request) {
		prim, fol := n.roles()
		(&Node{Primary: prim, Follower: fol, Advertise: n.url}).HandleInfo(w, r)
	})
	mux.HandleFunc("/api/v1/replica/wal", func(w http.ResponseWriter, r *http.Request) { prim, _ := n.roles(); prim.HandleWAL(w, r) })
	mux.HandleFunc("/api/v1/replica/snapshot", func(w http.ResponseWriter, r *http.Request) { prim, _ := n.roles(); prim.HandleSnapshot(w, r) })
	mux.HandleFunc("/api/v1/replica/promote", func(w http.ResponseWriter, r *http.Request) { _, fol := n.roles(); fol.HandlePromote(w, r) })
	mux.HandleFunc("/api/v1/replica/op", func(w http.ResponseWriter, r *http.Request) { _, fol := n.roles(); fol.HandleOp(w, r) })
	n.srv = &httptest.Server{Listener: ln, Config: &http.Server{Handler: mux}}
	n.srv.Start()
	t.Cleanup(n.kill)
}

// kill is SIGKILL as far as the peer can tell: the port refuses, the
// loops stop, nothing is flushed.
func (n *tnode) kill() {
	if n.dead {
		return
	}
	n.dead = true
	n.srv.CloseClientConnections()
	n.srv.Close()
	if n.fol != nil {
		n.fol.Stop()
	}
	n.st.Close()
}

// follower arms n as `pcd -follow primary -auto-failover -peers ...` — or,
// with lost set, as the revived primary node.Open makes of it: a follower
// of the shards it lost, the standing owner of the rest.
func (n *tnode) follower(t *testing.T, primary string, lost []Superseded, peers ...string) {
	t.Helper()
	fol, err := NewFollower(primary, n.url, n.st)
	if err != nil {
		t.Fatal(err)
	}
	prim, err := NewPrimary(n.st, 1)
	if err != nil {
		t.Fatal(err)
	}
	prim.SetLeaseTTL(claimsTTL)
	prim.SetPeersPath(PeersFilePath(n.dir))
	prim.StandbyOf(fol)
	n.st.SetFailover(NewFailover(prim), true)
	if len(lost) > 0 {
		if err := fol.Rejoin(lost); err != nil {
			t.Fatal(err)
		}
	}
	fol.SetAutoFailover(AutoConfig{LeaseTTL: claimsTTL, HeartbeatEvery: claimsTTL / 8, Peers: peers, Replicas: 1 + len(peers)})
	fol.pollWait = claimsTTL / 8
	n.mu.Lock()
	n.prim, n.fol = prim, fol
	n.mu.Unlock()
	fol.Start()
}

func openSharded(t *testing.T, dir string, o history.DurableOptions) *history.ShardedStore {
	t.Helper()
	o.WAL, o.ShardBreakerThreshold = true, 2
	st, err := history.OpenSharded(dir, 2, o)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// handedOverPair is a replicated two-shard pair after the primary's shard
// of poisson/B died and one write to it handed that shard to the
// follower. It returns both nodes, the handed shard and the one the
// primary still owns.
func handedOverPair(t *testing.T) (p, f *tnode, handed, kept int) {
	t.Helper()
	p, fs, handed, kept := replicatedShards(t, 1)
	handOver(t, p)
	return p, fs[0], handed, kept
}

// replicatedShards is a two-shard primary and its caught-up followers, the
// primary's shard of poisson/B (handed) on a disk that can be made to
// fail; kept is the shard of poisson/A.
func replicatedShards(t *testing.T, followers int) (p *tnode, fs []*tnode, handed, kept int) {
	t.Helper()
	handed, kept = history.ShardForKey("poisson", "B", 2), history.ShardForKey("poisson", "A", 2)
	p = &tnode{dir: t.TempDir(), fault: history.NewFaults(history.FaultConfig{Seed: 1})}
	p.st = openSharded(t, p.dir, history.DurableOptions{Create: true, Faults: shardFaults(handed, p.fault)})
	var err error
	if p.prim, err = NewPrimary(p.st, followers); err != nil {
		t.Fatal(err)
	}
	p.prim.SetLeaseTTL(claimsTTL)
	p.prim.SetPeersPath(PeersFilePath(p.dir))
	p.st.SetFailover(NewFailover(p.prim), true)
	p.serve(t, "")

	var urls []string
	for i := 0; i < followers; i++ {
		f := &tnode{dir: t.TempDir()}
		f.st = openSharded(t, f.dir, history.DurableOptions{Create: true})
		f.serve(t, "")
		fs, urls = append(fs, f), append(urls, f.url)
	}
	for i, f := range fs {
		f.follower(t, p.url, nil, append(urls[:i:i], urls[i+1:]...)...)
	}

	g := Gate(p.st, p.prim)
	for i := 1; i <= 3; i++ {
		for _, version := range []string{"A", "B"} {
			if err := g.Save(rec("poisson", version, fmt.Sprintf("r%d", i), float64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, 5*time.Second, "followers to catch up", func() bool {
		for _, f := range fs {
			if f.st.Len() != 6 {
				return false
			}
		}
		return true
	})
	return p, fs, handed, kept
}

// handOver kills p's shard of poisson/B and hands it over with one write.
func handOver(t *testing.T, p *tnode) {
	t.Helper()
	p.fault.SetConfig(history.FaultConfig{ErrRate: 1})
	for i := 0; i < 2; i++ {
		p.st.Save(rec("poisson", "B", "trip", 9)) // trips the breaker
	}
	if err := Gate(p.st, p.prim).Save(rec("poisson", "B", "r4", 4)); err != nil {
		t.Fatalf("the write that hands the shard over: %v", err)
	}
}

// claim is the part of a row a claim is made of.
func claim(r row) [3]any { return [3]any{r.role, r.epoch, r.peer} }

// writableOn asserts which of the nodes' tables let a public write to
// version's shard through.
func writableOn(t *testing.T, version string, yes *tnode, no ...*tnode) {
	t.Helper()
	if err := yes.fol.Writable("poisson", version); err != nil {
		t.Errorf("poisson/%s not writable on %s: %v", version, yes.url, err)
	}
	for _, n := range no {
		if err := n.fol.Writable("poisson", version); err == nil {
			t.Errorf("poisson/%s writable on %s as well", version, n.url)
		}
	}
}

// TestHandOverCoversOneShard: the follower's claim names the handed shard
// only, the primary's detector fences nothing on seeing it, and the
// primary keeps acknowledging writes to the shard it still owns.
func TestHandOverCoversOneShard(t *testing.T) {
	p, f, handed, kept := handedOverPair(t)
	info, err := FetchInfo(context.Background(), f.url)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Owned) != 1 || info.Owned[0].Shard != handed || info.Owned[0].Epoch == 0 {
		t.Fatalf("the follower claims %+v, want shard %d alone", info.Owned, handed)
	}
	det := NewDetector(p.prim, DetectorConfig{Advertise: p.url, LeaseTTL: claimsTTL, ShardHealth: p.st.ShardStats, PromoteShard: p.st.FailoverPromote})
	det.tick()
	rows := p.prim.tab.read().rows
	if rows[kept].role != roleOwner || rows[handed].role != roleHandedOver || rows[handed].peer != f.url {
		t.Fatalf("the primary's table after seeing the claim: %+v", rows)
	}
	if err := Gate(p.st, p.prim).Save(rec("poisson", "A", "after", 1)); err != nil {
		t.Fatalf("write to the shard the primary still owns: %v", err)
	}
}

// TestGateDoesNotWaitOnHandedShard: the handed shard's log stopped with
// the hand-over and its new owner no longer pulls it, so once the last
// pull is older than the follower window nobody will ever ack it. A
// gated write — committed on the new owner through the seam — answers at
// once instead of 503 after the whole gate timeout.
func TestGateDoesNotWaitOnHandedShard(t *testing.T) {
	p, f, _, _ := handedOverPair(t)
	p.prim.window, p.prim.gate = 50*time.Millisecond, 2*time.Second
	time.Sleep(4 * p.prim.window)
	start := time.Now()
	if err := Gate(p.st, p.prim).Save(rec("poisson", "B", "late", 5)); err != nil {
		t.Fatalf("gated write to the handed shard: %v", err)
	}
	if took := time.Since(start); took > p.prim.gate/4 {
		t.Errorf("gated write to the handed shard took %s of a %s gate", took, p.prim.gate)
	}
	if _, err := f.st.Load("poisson", "B", "late"); err != nil {
		t.Errorf("the write is not on the new owner: %v", err)
	}
}

// TestFollowerKeepsWatchingAfterHandOver: owning one shard does not end
// the follower's watch over the primary for the other — when the primary
// dies the follower stands for the remaining shard within three lease
// TTLs, and the shard it already owned stays as it was.
func TestFollowerKeepsWatchingAfterHandOver(t *testing.T) {
	p, f, handed, kept := handedOverPair(t)
	before := f.fol.tab.read().rows[handed]
	p.kill()
	waitFor(t, 3*claimsTTL, "a stand for the remaining shard", func() bool { return f.fol.tab.read().rows[kept].role == roleOwner })
	rows := f.fol.tab.read().rows
	if claim(rows[handed]) != claim(before) {
		t.Errorf("the stand for shard %d moved shard %d's row from %+v to %+v", kept, handed, before, rows[handed])
	}
	if rows[kept].epoch <= before.epoch {
		t.Errorf("the new claim's epoch %d does not dominate %d", rows[kept].epoch, before.epoch)
	}
}

// TestLeaseIsPerFollowedPeer: three nodes. The primary hands one shard to
// a follower; the other follower follows the new owner for that shard and
// the primary for the rest. When the primary dies the new owner's answers
// must not pass for the primary's: one of the two survivors stands for the
// orphaned shard, the other follows it there, and the handed shard stays
// where it was.
func TestLeaseIsPerFollowedPeer(t *testing.T) {
	p, fs, handed, kept := replicatedShards(t, 2)
	handOver(t, p)
	b, c := fs[0], fs[1]
	if c.fol.tab.read().rows[handed].role == roleOwner {
		b, c = c, b
	}
	before := b.fol.tab.read().rows[handed]
	if before.role != roleOwner || c.fol.tab.read().rows[handed].role != roleFollowing {
		t.Fatalf("after the hand-over: %+v and %+v", before, c.fol.tab.read().rows[handed])
	}
	// As an election round that met the new owner's ballot leaves it.
	editState(c.fol.tab, func(s *state) { s.rows[handed].peer = b.url })
	waitFor(t, 5*time.Second, "the other follower to replicate from the new owner", func() bool {
		return c.fol.tab.read().rows[handed].epoch == before.epoch
	})
	p.kill()
	owner := func(n *tnode) bool { return n.fol.tab.read().rows[kept].role == roleOwner }
	waitFor(t, 5*claimsTTL, "a stand for the orphaned shard", func() bool { return owner(b) || owner(c) })
	won, other := b, c
	if owner(c) {
		won, other = c, b
	}
	waitFor(t, 5*claimsTTL, "the other survivor to follow the new owner", func() bool {
		return other.fol.tab.read().rows[kept].peer == won.url
	})
	if owner(other) {
		t.Errorf("%s and %s both own shard %d", b.url, c.url, kept)
	}
	if after := b.fol.tab.read().rows[handed]; claim(after) != claim(before) {
		t.Errorf("the handed shard's row moved from %+v to %+v", before, after)
	}
	if r := c.fol.tab.read().rows[handed]; r.role != roleFollowing || r.peer != b.url {
		t.Errorf("the other follower's row of the handed shard: %+v", r)
	}
}

// TestRacingHandOversElectOneFollower: writers that find the shard dead
// and the detector all ask for the hand-over at once; one follower is
// asked to stand, and everyone gets its handle.
func TestRacingHandOversElectOneFollower(t *testing.T) {
	p, fs, handed, _ := replicatedShards(t, 2)
	errs := make(chan error, 8)
	for i := 0; i < cap(errs); i++ {
		go func() { errs <- p.st.FailoverPromote(handed) }()
	}
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	var owners []string
	for _, f := range fs {
		if f.fol.tab.read().rows[handed].role == roleOwner {
			owners = append(owners, f.url)
		}
	}
	row := p.prim.tab.read().rows[handed]
	if len(owners) != 1 || row.role != roleHandedOver || row.peer != owners[0] {
		t.Fatalf("shard %d is owned by %v, the primary's row says %+v", handed, owners, row)
	}
}

// TestStandRefusedByJournalLeavesRow: a stand whose epoch the journal
// cannot take does not happen — the row is not an owner under a generation
// no journal holds, and the promote request fails.
func TestStandRefusedByJournalLeavesRow(t *testing.T) {
	dir := t.TempDir()
	fol, err := NewFollower("http://127.0.0.1:1", "http://f", openDurable(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	before := fol.tab.read().rows[0]
	// The journal's open segment survives; its EPOCH file has nowhere to go.
	if err := os.RemoveAll(filepath.Join(dir, history.WALDirName)); err != nil {
		t.Fatal(err)
	}
	if resp, err := fol.Promote(0); err == nil || len(resp.Promoted) != 0 {
		t.Fatalf("Promote = %+v, %v; want the journal's refusal", resp, err)
	}
	if after := fol.tab.read().rows[0]; claim(after) != claim(before) {
		t.Errorf("the row moved from %+v to %+v", before, after)
	}
	if err := fol.Writable("poisson", "A"); err == nil {
		t.Error("writable after a stand the journal refused")
	}
}

// TestRejoinIsPerShard: a primary revived after handing one shard over
// comes up following that shard's new owner — refusing writes to it with
// the typed fencing error — and still owning the other, which is writable
// there and nowhere else; and again at its next restart, by when its
// journals have outgrown the claim it lost to. A later death of either
// node then moves only that node's rows.
func TestRejoinIsPerShard(t *testing.T) {
	for _, dies := range []string{"the revived primary", "the follower"} {
		t.Run(dies+" dies", func(t *testing.T) {
			p, f, handed, kept := handedOverPair(t)
			addr := p.srv.Listener.Addr().String()
			r := p
			for _, start := range []string{"first", "second"} {
				r.kill()
				lost := SupersededBy(context.Background(), p.dir, nil, p.url)
				if len(lost) != 1 || lost[0].Shard != handed || lost[0].Winner != f.url {
					t.Fatalf("the %s start-up probe found %+v, want shard %d claimed by %s", start, lost, handed, f.url)
				}
				r = &tnode{dir: p.dir}
				r.st = openSharded(t, r.dir, history.DurableOptions{})
				r.serve(t, addr)
				r.follower(t, lost[0].Winner, lost)

				rows := r.fol.tab.read().rows
				if rows[handed].role != roleFollowing || rows[handed].peer != f.url || rows[kept].role != roleOwner {
					t.Fatalf("the revived primary's table after its %s start: %+v", start, rows)
				}
				if err := r.fol.Writable("poisson", "B"); !errors.Is(err, ErrFenced) {
					t.Errorf("write to the shard it lost = %v, want ErrFenced", err)
				}
				writableOn(t, "A", r, f)
				writableOn(t, "B", f, r)
				// Both directions replicate again: the follower off the revived
				// node's new generation, the revived node off the new owner.
				waitFor(t, 5*time.Second, "both to catch up", func() bool {
					return f.fol.tab.read().rows[kept].epoch == rows[kept].epoch && r.fol.tab.read().rows[handed].epoch == f.fol.tab.read().rows[handed].epoch
				})
			}

			dead, left, orphan, own := r, f, kept, handed
			if dies == "the follower" {
				dead, left, orphan, own = f, r, handed, kept
			}
			before := left.fol.tab.read().rows[own]
			dead.kill()
			waitFor(t, 3*claimsTTL, "a stand for the dead node's shard", func() bool { return left.fol.tab.read().rows[orphan].role == roleOwner })
			if after := left.fol.tab.read().rows[own]; claim(after) != claim(before) {
				t.Errorf("the survivor's own row moved from %+v to %+v", before, after)
			}
		})
	}
}

// TestLostAtBoot: which shards a restarting primary gives up. Shard 0 it
// never kept columns for; shard 1 it persisted as following http://old.
func TestLostAtBoot(t *testing.T) {
	cols := []replState{{}, {Epoch: 2, Primary: "http://old", DemotedFrom: 1}}
	owned := []replState{{Epoch: 5, Promoted: true, Primary: "http://old"}, {Epoch: 5, Promoted: true, Primary: "http://old"}}
	journals := []uint64{4, 4}
	ballot := func(url string, claims ...Claim) peerInfo {
		return peerInfo{url: url, id: url, InfoResponse: InfoResponse{Owned: claims}}
	}
	for _, tc := range []struct {
		name    string
		cols    []replState
		ballots []peerInfo
		want    []Superseded
	}{
		{"a claim past the journal takes the shard", owned, []peerInfo{ballot("http://b", Claim{0, 5})},
			[]Superseded{{Claim{0, 5}, "http://b"}}},
		{"a claim the journal has outgrown does not", owned, []peerInfo{ballot("http://b", Claim{0, 4}, Claim{1, 3})}, nil},
		{"unless the columns say the shard was given up", cols, []peerInfo{ballot("http://b", Claim{0, 4}, Claim{1, 3})},
			[]Superseded{{Claim{1, 3}, "http://b"}}},
		{"to its newest claimant", cols, []peerInfo{ballot("http://b", Claim{1, 3}), ballot("http://c", Claim{1, 4})},
			[]Superseded{{Claim{1, 4}, "http://c"}}},
		{"or, when nobody claims it, to the peer the columns name", cols, []peerInfo{ballot("http://b", Claim{0, 2})},
			[]Superseded{{Claim{1, 2}, "http://old"}}},
		{"a claim on a shard the directory lacks is the driver's to refuse", owned, []peerInfo{ballot("http://b", Claim{7, 1})},
			[]Superseded{{Claim{7, 1}, "http://b"}}},
	} {
		if got := lostAtBoot(tc.cols, journals, tc.ballots); !slices.Equal(got, tc.want) {
			t.Errorf("%s: lost %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
