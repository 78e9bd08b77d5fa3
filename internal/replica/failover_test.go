package replica

import (
	"bytes"
	"encoding/json"
	"errors"
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

// Automatic-failover unit tests: the lease-based failure detector, the
// promotion election (majority visibility, veto, tie-breaks), epoch
// fencing on every replication RPC, the quorum ack gate, and the
// rejoin/divergence path — each layer in isolation against fake peers.

// openDurable opens a fresh durable store under a temp dir.
func openDurable(t *testing.T, dir string) *history.Store {
	t.Helper()
	st, err := history.OpenStoreDurable(dir, history.DurableOptions{Create: true, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// infoServer serves a fixed InfoResponse — a fake election peer.
func infoServer(t *testing.T, info InfoResponse) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/replica/info", func(w http.ResponseWriter, r *http.Request) {
		writeWire(w, http.StatusOK, info)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestAutoFailoverPromotesOnLeaseLapse: a single-follower deployment
// loses its primary; the lease lapses, the follower declares it suspect
// and — being the whole electorate — self-promotes within a few TTLs,
// bumping the epoch and opening the keyspace, with no operator call.
func TestAutoFailoverPromotesOnLeaseLapse(t *testing.T) {
	primDir, folDir := t.TempDir(), t.TempDir()
	pst := openDurable(t, primDir)
	if err := pst.Save(rec("poisson", "A", "r1", 0.4)); err != nil {
		t.Fatal(err)
	}
	prim, err := NewPrimary(pst, 1)
	if err != nil {
		t.Fatal(err)
	}
	prim.SetLeaseTTL(300 * time.Millisecond)
	tsP := primaryServer(t, prim)

	fst := openDurable(t, folDir)
	fol, err := NewFollower(tsP.URL, "http://follower-1", fst)
	if err != nil {
		t.Fatal(err)
	}
	fol.SetAutoFailover(AutoConfig{
		LeaseTTL:       300 * time.Millisecond,
		HeartbeatEvery: 50 * time.Millisecond,
		Replicas:       1,
	})
	fol.Start()
	defer fol.Stop()

	waitFor(t, 5*time.Second, "bootstrap", func() bool { return fst.Len() == 1 })
	if fol.Suspect() {
		t.Fatal("follower suspects a healthy primary")
	}
	// The primary's lease grant rode the pull and was persisted.
	waitFor(t, 5*time.Second, "lease persist", func() bool {
		data, err := os.ReadFile(statePath(folDir))
		if err != nil {
			return false
		}
		var rs replState
		if json.Unmarshal(data, &rs) != nil {
			return false
		}
		return rs.Lease != nil && rs.Lease.TTLMS == 300
	})
	before := fol.Epoch()

	// Kill the primary. Nothing else happens from here: the follower has
	// to notice and take over on its own.
	tsP.CloseClientConnections()
	tsP.Close()
	waitFor(t, 5*time.Second, "self-promotion", fol.AnyPromoted)
	promotedEpoch := fol.Epoch()
	if promotedEpoch <= before {
		t.Fatalf("promotion epoch %d did not advance past %d", promotedEpoch, before)
	}
	if err := fol.Writable("poisson", "A"); err != nil {
		t.Fatalf("promoted follower refuses writes: %v", err)
	}
	// Promotion is durable and the state epoch tracks the journal's.
	data, err := os.ReadFile(statePath(folDir))
	if err != nil {
		t.Fatal(err)
	}
	var rs replState
	if err := json.Unmarshal(data, &rs); err != nil {
		t.Fatal(err)
	}
	if !rs.Promoted || rs.Epoch != promotedEpoch {
		t.Fatalf("persisted state = %+v, want promoted at epoch %d", rs, promotedEpoch)
	}
	if w := fst.WAL(); w == nil || w.Epoch() != promotedEpoch {
		t.Fatalf("journal epoch %d, want %d", fst.WAL().Epoch(), promotedEpoch)
	}
}

// TestAutoFailoverMinorityNeverPromotes: a follower that cannot see a
// majority of the electorate (its two peers are unreachable, Replicas
// is 3) declares the primary suspect but never self-promotes — a
// partitioned minority must not split the brain.
func TestAutoFailoverMinorityNeverPromotes(t *testing.T) {
	primDir, folDir := t.TempDir(), t.TempDir()
	pst := openDurable(t, primDir)
	prim, err := NewPrimary(pst, 3)
	if err != nil {
		t.Fatal(err)
	}
	tsP := primaryServer(t, prim)

	fst := openDurable(t, folDir)
	fol, err := NewFollower(tsP.URL, "http://follower-1", fst)
	if err != nil {
		t.Fatal(err)
	}
	fol.SetAutoFailover(AutoConfig{
		LeaseTTL:       150 * time.Millisecond,
		HeartbeatEvery: 30 * time.Millisecond,
		Replicas:       3,
		Peers:          []string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
	})
	fol.Start()
	defer fol.Stop()
	waitFor(t, 5*time.Second, "first contact", func() bool { return !fol.Suspect() && fol.Epoch() > 0 })

	tsP.CloseClientConnections()
	tsP.Close()
	waitFor(t, 5*time.Second, "suspicion", fol.Suspect)
	// Give the detector many more election rounds than promotion needs.
	time.Sleep(600 * time.Millisecond)
	if fol.AnyPromoted() {
		t.Fatal("partitioned minority promoted itself")
	}
}

// TestElectionVetoedByPeerStillHearingPrimary: a peer that does not
// find the primary suspect blocks the round — one node's dropped link
// must not trigger failover while the primary is alive for others.
func TestElectionVetoedByPeerStillHearingPrimary(t *testing.T) {
	fst := openDurable(t, t.TempDir())
	fol, err := NewFollower("http://127.0.0.1:1", "http://b", fst)
	if err != nil {
		t.Fatal(err)
	}
	peer := infoServer(t, InfoResponse{Role: "follower", Advertise: "http://a", Suspect: false})
	fol.SetAutoFailover(AutoConfig{LeaseTTL: time.Second, Replicas: 2, Peers: []string{peer.URL}})
	fol.lapse()
	fol.tryFailover()
	if fol.AnyPromoted() {
		t.Fatal("promoted despite a peer still hearing the primary")
	}
}

// TestElectionLosesToMoreCaughtUpPeer: the candidate with the higher
// applied position wins; equal positions break the tie on the smaller
// advertise URL, deterministically.
func TestElectionLosesToMoreCaughtUpPeer(t *testing.T) {
	cases := []struct {
		name    string
		peer    InfoResponse
		promote bool
	}{
		{"peer ahead", InfoResponse{Role: "follower", Advertise: "http://z", Suspect: true, AppliedSeq: 100}, false},
		{"tie, peer smaller URL", InfoResponse{Role: "follower", Advertise: "http://a", Suspect: true}, false},
		{"tie, peer larger URL", InfoResponse{Role: "follower", Advertise: "http://z", Suspect: true}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fst := openDurable(t, t.TempDir())
			fol, err := NewFollower("http://127.0.0.1:1", "http://b", fst)
			if err != nil {
				t.Fatal(err)
			}
			peer := infoServer(t, tc.peer)
			fol.SetAutoFailover(AutoConfig{LeaseTTL: time.Second, Replicas: 2, Peers: []string{peer.URL}})
			fol.lapse()
			fol.tryFailover()
			if got := fol.AnyPromoted(); got != tc.promote {
				t.Fatalf("promoted = %v, want %v", got, tc.promote)
			}
		})
	}
}

// TestElectionClearedByLiveReachablePrimary: suspicion is only the
// absence of recent pulls, which a starved or stalled follower observes
// just as readily as a crashed primary's survivor does. The election's
// last-gasp probe asks the suspected primary directly; if it answers
// and still claims the role, no election happens and the lease renews.
func TestElectionClearedByLiveReachablePrimary(t *testing.T) {
	prim := infoServer(t, InfoResponse{Role: "primary", Advertise: "http://a", Epoch: 1, Owned: []Claim{{Shard: 0, Epoch: 1}}})
	fst := openDurable(t, t.TempDir())
	fol, err := NewFollower(prim.URL, "http://b", fst)
	if err != nil {
		t.Fatal(err)
	}
	fol.SetAutoFailover(AutoConfig{LeaseTTL: time.Second, Replicas: 1})
	fol.lapse()
	fol.tryFailover()
	if fol.AnyPromoted() {
		t.Fatal("deposed a primary that answered the last-gasp probe")
	}
	if fol.Suspect() {
		t.Fatal("still suspect after the primary answered directly")
	}
}

// TestElectionAdoptsHigherEpochClaimant: when a peer already won (it
// claims the primary role under a higher epoch), the round is over —
// the follower retargets its pull loops at the winner instead of
// promoting.
func TestElectionAdoptsHigherEpochClaimant(t *testing.T) {
	fst := openDurable(t, t.TempDir())
	fol, err := NewFollower("http://127.0.0.1:1", "http://b", fst)
	if err != nil {
		t.Fatal(err)
	}
	winner := infoServer(t, InfoResponse{Role: "primary", Advertise: "http://new-primary", Epoch: 99, Owned: []Claim{{Shard: 0, Epoch: 99}}})
	fol.SetAutoFailover(AutoConfig{LeaseTTL: time.Second, Replicas: 2, Peers: []string{winner.URL}})
	fol.lapse()
	fol.tryFailover()
	if fol.AnyPromoted() {
		t.Fatal("promoted instead of adopting the election winner")
	}
	if got := fol.PrimaryURL(); got != "http://new-primary" {
		t.Fatalf("primary = %q, want the winner's advertise URL", got)
	}
	if fol.Suspect() {
		t.Fatal("still suspect after retargeting at a live winner")
	}
}

// TestFollowerRefusesStaleEpochPull: a pull answered from an OLDER
// journal epoch than the follower's position is a fenced zombie's —
// folding its frames would resurrect a superseded keyspace.
func TestFollowerRefusesStaleEpochPull(t *testing.T) {
	dir := t.TempDir()
	fst := openDurable(t, dir)
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/replica/wal", func(w http.ResponseWriter, r *http.Request) {
		writeFrames(w, PullResponse{Epoch: 3}, nil)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	fol, err := NewFollower(ts.URL, "http://b", fst)
	if err != nil {
		t.Fatal(err)
	}
	editState(fol.tab, func(s *state) { s.rows[0].epoch = 5 })
	_, err = fol.pullOnce(0, 0)
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("stale-epoch pull returned %v, want ErrFenced", err)
	}
}

// TestFollowerStopsAtBadFrame: the pull body is read by the journal's own
// decoder, so a frame damaged in transit ends the pull there — the good
// frames before it are folded and checkpointed, the error says what was
// wrong, and nothing after the damage reaches the store. A body that
// carries frames but no first_seq is refused whole.
func TestFollowerStopsAtBadFrame(t *testing.T) {
	fst := openDurable(t, t.TempDir())
	var frames [][]byte
	for _, run := range []string{"r1", "r2", "r3"} {
		data, err := json.MarshalIndent(rec("app", "", run, 0.5), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		fr, err := history.EncodeWALFrame(entry(run, string(data)))
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, fr)
	}
	frames[1][len(frames[1])-3] ^= 0x40 // one bit, inside r2's record bytes
	hdr := PullResponse{Epoch: 1, HeadSeq: 3, FirstSeq: 1}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeFrames(w, hdr, frames)
	}))
	defer ts.Close()
	fol, err := NewFollower(ts.URL, "http://b", fst)
	if err != nil {
		t.Fatal(err)
	}
	editState(fol.tab, func(s *state) { s.rows[0].epoch = 1 })

	n, err := fol.pullOnce(0, 0)
	if n != 1 || err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("pull over a damaged second frame = (%d, %v), want 1 applied and a CRC error", n, err)
	}
	if keys := fst.Keys(); len(keys) != 1 || keys[0].RunID != "r1" {
		t.Fatalf("store holds %v, want r1 only", keys)
	}
	if got := fol.Stats().Shards[0].AppliedSeq; got != 1 {
		t.Fatalf("applied position %d, want 1", got)
	}

	hdr.FirstSeq = 0
	if n, err := fol.pullOnce(0, 0); n != 0 || err == nil || !strings.Contains(err.Error(), "first_seq") {
		t.Fatalf("pull with frames and no first_seq = (%d, %v), want it refused", n, err)
	}
}

// TestFollowerRefusesStaleSnapshot: same guard on the bootstrap path —
// a snapshot image from an older generation must never be installed.
func TestFollowerRefusesStaleSnapshot(t *testing.T) {
	dir := t.TempDir()
	fst := openDurable(t, dir)
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/replica/wal", func(w http.ResponseWriter, r *http.Request) {
		writeFrames(w, PullResponse{Epoch: 5, NeedSnapshot: true}, nil)
	})
	mux.HandleFunc("/api/v1/replica/snapshot", func(w http.ResponseWriter, r *http.Request) {
		writeFrames(w, SnapshotResponse{Epoch: 3}, nil)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	fol, err := NewFollower(ts.URL, "http://b", fst)
	if err != nil {
		t.Fatal(err)
	}
	editState(fol.tab, func(s *state) { s.rows[0].epoch = 5 })
	_, err = fol.pullOnce(0, 0)
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("stale snapshot returned %v, want ErrFenced", err)
	}
}

// TestHandleWALFencesHigherEpochPuller: a puller carrying a higher
// epoch proves a newer primary was elected while this one kept serving;
// the pull is refused 409 and the primary fences itself.
func TestHandleWALFencesHigherEpochPuller(t *testing.T) {
	pst := openDurable(t, t.TempDir())
	prim, err := NewPrimary(pst, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := primaryServer(t, prim)
	mine := prim.Epoch()
	resp, err := http.Get(fmt.Sprintf("%s/api/v1/replica/wal?shard=0&epoch=%d&from=0&id=http://rival", ts.URL, mine+5))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("higher-epoch pull answered %d, want 409", resp.StatusCode)
	}
	if r := prim.tab.read().rows[0]; r.role != roleFenced || r.epoch != mine+5 || r.demoted != mine {
		t.Fatalf("row = %+v, want fenced out of %d by %d", r, mine, mine+5)
	}
	if st := prim.Stats(); st.FencingRejects == 0 {
		t.Fatal("fencing reject not counted")
	}
}

// TestWaitWriteFencedAndShedAfterPromotion: a fenced primary refuses
// gated writes with the typed error; once its own epoch moves past the
// rival generation (the standby-promotion path), the stale fence sheds
// and writes flow again.
func TestWaitWriteFencedAndShedAfterPromotion(t *testing.T) {
	pst := openDurable(t, t.TempDir())
	prim, err := NewPrimary(pst, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := pst.Save(rec("poisson", "A", "r1", 0.4)); err != nil {
		t.Fatal(err)
	}
	mine := prim.Epoch()
	prim.tab.apply(event{kind: evClaim, peer: "http://rival", claims: []Claim{{Shard: 0, Epoch: mine + 5}}})
	err = prim.WaitWrite(0)
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced WaitWrite returned %v, want ErrFenced", err)
	}
	var fe *FencingError
	if !errors.As(err, &fe) || fe.Local != mine || fe.Remote != mine+5 {
		t.Fatalf("fencing error = %+v, want local %d remote %d", fe, mine, mine+5)
	}
	// The standby promotes past the rival: the fence no longer binds.
	if st, _, err := prim.tab.apply(event{kind: evStand, shards: []int{0}, forced: true}); err != nil || st.rows[0].epoch != mine+6 {
		t.Fatalf("stand past the rival = %+v, %v; want epoch %d", st.rows[0], err, mine+6)
	}
	if err := prim.WaitWrite(0); err != nil {
		t.Fatalf("WaitWrite after shedding the stale fence: %v", err)
	}
}

// TestQuorumGateRequiresQAcks: with -ack-quorum 2 of 2 followers, one
// ack is not enough — the gate refuses the write — and the second ack
// releases it.
func TestQuorumGateRequiresQAcks(t *testing.T) {
	pst := openDurable(t, t.TempDir())
	prim, err := NewPrimary(pst, 2)
	if err != nil {
		t.Fatal(err)
	}
	prim.SetQuorum(2)
	prim.gate = 100 * time.Millisecond
	if err := pst.Save(rec("poisson", "A", "r1", 0.4)); err != nil {
		t.Fatal(err)
	}
	l := prim.logs[0]
	head := l.headSeq()
	l.registerAck("http://f1", head)
	if err := prim.WaitWrite(0); err == nil {
		t.Fatal("write released on 1 of 2 required acks")
	}
	if st := prim.Stats(); st.GateTimeouts == 0 {
		t.Fatal("under-quorum write not counted as a gate timeout")
	}
	l.registerAck("http://f2", head)
	if err := prim.WaitWrite(0); err != nil {
		t.Fatalf("write refused with a full quorum: %v", err)
	}
	if st := prim.Stats(); st.QuorumAcks == 0 {
		t.Fatal("quorum release not counted")
	}
}

// TestRejoinDemotionAndDivergenceQuarantine: a promoted ex-primary
// rejoins a newer generation — writes are refused with the typed
// fencing error, and the bootstrap quarantines the old generation's
// unshipped records as an auditable divergence record instead of
// silently dropping them.
func TestRejoinDemotionAndDivergenceQuarantine(t *testing.T) {
	folDir := t.TempDir()
	fst := openDurable(t, folDir)
	// Records only the old generation holds: one the new primary never
	// saw, one it holds with different bytes.
	if err := fst.Save(rec("poisson", "A", "zombie-only", 1)); err != nil {
		t.Fatal(err)
	}
	if err := fst.Save(rec("poisson", "A", "shared", 7)); err != nil {
		t.Fatal(err)
	}
	fol, err := NewFollower("http://127.0.0.1:1", "http://old-primary", fst)
	if err != nil {
		t.Fatal(err)
	}
	// Own the keyspace for a while (the dead upstream makes the final
	// catch-up a fast no-op).
	if _, err := fol.Promote(-1); err != nil {
		t.Fatal(err)
	}
	oldEpoch := fol.Epoch()

	// The new generation: a primary several epochs ahead with its own
	// view of the keyspace.
	primDir := t.TempDir()
	pst := openDurable(t, primDir)
	if err := pst.WAL().SetEpoch(oldEpoch + 8); err != nil {
		t.Fatal(err)
	}
	if err := pst.Save(rec("poisson", "A", "shared", 5)); err != nil {
		t.Fatal(err)
	}
	if err := pst.Save(rec("poisson", "A", "fresh", 9)); err != nil {
		t.Fatal(err)
	}
	prim, err := NewPrimary(pst, 1)
	if err != nil {
		t.Fatal(err)
	}
	tsP := primaryServer(t, prim)

	if err := fol.Rejoin([]Superseded{{Claim: Claim{Shard: 0, Epoch: oldEpoch + 8}, Winner: tsP.URL}}); err != nil {
		t.Fatal(err)
	}
	err = fol.Writable("poisson", "A")
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("demoted ex-primary's Writable = %v, want ErrFenced", err)
	}
	var fe *FencingError
	if !errors.As(err, &fe) || fe.Local != oldEpoch {
		t.Fatalf("fencing error = %+v, want the demoted epoch %d named", fe, oldEpoch)
	}

	// Catch up: the stale position forces a snapshot bootstrap, which
	// must quarantine the divergent tail before pruning.
	if _, err := fol.pullOnce(0, 0); err != nil {
		t.Fatalf("rejoin bootstrap: %v", err)
	}
	name := fmt.Sprintf("DIVERGENCE-e%d-to-e%d.json", oldEpoch, oldEpoch+8)
	qpath := filepath.Join(folDir, history.QuarantineDir, name)
	data, err := os.ReadFile(qpath)
	if err != nil {
		t.Fatalf("divergence record not written: %v", err)
	}
	var payload struct {
		DemotedEpoch uint64 `json:"demoted_epoch"`
		AdoptedEpoch uint64 `json:"adopted_epoch"`
		Records      []struct {
			Key    Key    `json:"key"`
			Reason string `json:"reason"`
		} `json:"records"`
	}
	if err := json.Unmarshal(data, &payload); err != nil {
		t.Fatal(err)
	}
	if payload.DemotedEpoch != oldEpoch || payload.AdoptedEpoch != oldEpoch+8 {
		t.Fatalf("divergence epochs = %d→%d, want %d→%d", payload.DemotedEpoch, payload.AdoptedEpoch, oldEpoch, oldEpoch+8)
	}
	reasons := make(map[string]string)
	for _, r := range payload.Records {
		reasons[r.Key.RunID] = r.Reason
	}
	if !strings.Contains(reasons["zombie-only"], "absent") {
		t.Fatalf("zombie-only record reason = %q, want absent-from-image", reasons["zombie-only"])
	}
	if !strings.Contains(reasons["shared"], "differs") {
		t.Fatalf("shared record reason = %q, want differs-from-image", reasons["shared"])
	}
	report, err := os.ReadFile(filepath.Join(folDir, history.QuarantineDir, "REPORT.txt"))
	if err != nil || !strings.Contains(string(report), name) {
		t.Fatalf("REPORT.txt does not record the divergence file: %v / %q", err, report)
	}

	// The store converged to the new generation's image.
	if fst.Len() != 2 {
		t.Fatalf("post-bootstrap store holds %d records, want 2", fst.Len())
	}
	got, err := fst.Load("poisson", "A", "shared")
	if err != nil || got.Results[0].Value != 5 {
		t.Fatalf("shared record after bootstrap = %+v, %v; want the new primary's bytes", got, err)
	}

	// pcfsck surfaces the quarantined divergence as residue — and never
	// auto-clears it, even with -repair.
	for _, repair := range []bool{false, true} {
		rep, err := history.FsckStore(folDir, repair)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Severity() != 1 {
			t.Fatalf("fsck(repair=%v) severity = %d, want residue", repair, rep.Severity())
		}
	}
	if _, err := os.Stat(qpath); err != nil {
		t.Fatalf("repair removed the divergence record: %v", err)
	}
}

// TestHandleOpFencesStaleWrite: a promoted shard refuses a write op
// stamped with an older generation — a zombie seam still flushing must
// not mutate a keyspace a newer promotion owns.
func TestHandleOpFencesStaleWrite(t *testing.T) {
	folDir := t.TempDir()
	fst := openDurable(t, folDir)
	fol, err := NewFollower("http://127.0.0.1:1", "http://b", fst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fol.Promote(-1); err != nil {
		t.Fatal(err)
	}
	epoch := fol.Epoch()
	ts := followerServer(t, &fol)

	frames, err := encodeFrames([]history.WALEntry{history.StoredEntry(rec("poisson", "A", "stale", 1))})
	if err != nil {
		t.Fatal(err)
	}
	post := func(opEpoch uint64) int {
		var body bytes.Buffer
		if err := writeFrames(&body, OpRequest{Shard: 0, Op: "apply", Epoch: opEpoch}, frames); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/api/v1/replica/op", "application/octet-stream", &body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(epoch - 1); got != http.StatusConflict {
		t.Fatalf("stale-epoch op answered %d, want 409", got)
	}
	if st := fol.Stats(); st.FencingRejects == 0 {
		t.Fatal("fencing reject not counted")
	}
	if got := post(epoch); got != http.StatusOK {
		t.Fatalf("current-epoch op answered %d, want 200", got)
	}
}
