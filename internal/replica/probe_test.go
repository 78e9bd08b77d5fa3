package replica

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/history"
)

// TestProbe: the one peer scan skips "", self and repeats, leaves an
// unreachable peer out of the result, keeps the order it was given,
// remembers the URL each answer came from, and drops a claim on a shard
// the prober does not have.
func TestProbe(t *testing.T) {
	a := infoServer(t, InfoResponse{Role: "follower", Advertise: "http://adv-a", AppliedSeq: 3})
	b := infoServer(t, InfoResponse{Role: "primary", Epoch: 4, Owned: []Claim{{Shard: 0, Epoch: 4}, {Shard: 7, Epoch: 4}, {Shard: -1, Epoch: 4}}})
	self := "http://self"
	peers := []string{"", self, b.URL, "http://127.0.0.1:1", a.URL, b.URL}
	got := probe(context.Background(), peers, self, 1, time.Second)
	if len(got) != 2 {
		t.Fatalf("probe returned %d peers, want 2 (b then a): %+v", len(got), got)
	}
	if len(got[0].Owned) != 1 || got[0].Owned[0].Shard != 0 {
		t.Errorf("first claims %+v, want shard 0 alone of the prober's one", got[0].Owned)
	}
	if got[0].url != b.URL || got[0].Epoch != 4 || got[0].id != b.URL {
		t.Errorf("first = %+v (id %q), want b reached at %s with no advertise", got[0], got[0].id, b.URL)
	}
	if got[1].url != a.URL || got[1].AppliedSeq != 3 || got[1].id != "http://adv-a" {
		t.Errorf("second = %+v (id %q), want a identified by its advertise URL", got[1], got[1].id)
	}
}

// TestClaimsPrimary pins the claim a node announces against its table,
// row by row: every combination of roles over two shards claims exactly
// the rows it owns, each under its own epoch, and claims the primary role
// iff there is one — a row followed, handed over or fenced is nobody's
// claim, whatever the other row is.
func TestClaimsPrimary(t *testing.T) {
	roles := []role{roleFollowing, roleOwner, roleHandedOver, roleFenced}
	for _, r0 := range roles {
		for _, r1 := range roles {
			st := state{rows: []row{{role: r0, epoch: 3}, {role: r1, epoch: 7}}}
			var want []Claim
			if r0 == roleOwner {
				want = append(want, Claim{Shard: 0, Epoch: 3})
			}
			if r1 == roleOwner {
				want = append(want, Claim{Shard: 1, Epoch: 7})
			}
			info := InfoResponse{Owned: st.owned()}
			if !reflect.DeepEqual(info.Owned, want) || info.ClaimsPrimary() != (len(want) > 0) {
				t.Errorf("rows (%s, %s) claim %v (primary=%v), want %v", r0, r1, info.Owned, info.ClaimsPrimary(), want)
			}
		}
	}
}

// TestDetectorCheckShards walks a two-shard table through the detector's
// shard-health report. Shard 1: a blip shorter than the lease hands
// nothing over and recovery resets the clock; degradation held past one
// lease asks for the hand-over, again after a failed attempt, and never
// once the seam recorded it. Shard 0, degraded throughout, was handed
// over by the write path before the detector looked: it is never asked
// for — and neither row's fate touches the other's.
func TestDetectorCheckShards(t *testing.T) {
	const ttl = 200 * time.Millisecond
	var (
		health  history.ShardInfo
		calls   []int
		failing bool
	)
	prim := &Primary{tab: newTable(nil, nil, false, state{rows: []row{{role: roleOwner, epoch: 1}, {role: roleOwner, epoch: 1}}})}
	prim.tab.apply(event{kind: evHandedOver, shard: 0, peer: "http://f", epoch: 2})
	d := NewDetector(prim, DetectorConfig{
		LeaseTTL: ttl,
		ShardHealth: func() []history.ShardInfo {
			return []history.ShardInfo{{Shard: 0, Degraded: true, Failover: "promoted"}, health}
		},
		PromoteShard: func(shard int) error {
			calls = append(calls, shard)
			if failing {
				return errors.New("no attached follower")
			}
			// What the seam does once the follower answered.
			prim.tab.apply(event{kind: evHandedOver, shard: shard, peer: "http://f", epoch: 2})
			return nil
		},
	})
	steps := []struct {
		name      string
		wait      time.Duration
		info      history.ShardInfo
		failing   bool
		wantCalls int
	}{
		{name: "first sight of degradation starts the clock", info: history.ShardInfo{Shard: 1, Degraded: true}},
		{name: "degraded for less than one lease", info: history.ShardInfo{Shard: 1, Degraded: true}},
		{name: "healthy again", info: history.ShardInfo{Shard: 1}},
		{name: "degraded again: the clock restarted", wait: ttl + 50*time.Millisecond, info: history.ShardInfo{Shard: 1, Degraded: true}},
		{name: "past one lease, promotion fails", wait: ttl + 50*time.Millisecond, info: history.ShardInfo{Shard: 1, Degraded: true}, failing: true, wantCalls: 1},
		{name: "retried on the next tick", info: history.ShardInfo{Shard: 1, Degraded: true}, wantCalls: 2},
		{name: "promoted: never again", wait: ttl + 50*time.Millisecond, info: history.ShardInfo{Shard: 1, Degraded: true}, wantCalls: 2},
	}
	for _, s := range steps {
		time.Sleep(s.wait)
		health, failing = s.info, s.failing
		d.tick()
		if len(calls) != s.wantCalls {
			t.Fatalf("%s: PromoteShard called %d times (%v), want %d", s.name, len(calls), calls, s.wantCalls)
		}
		if r := prim.tab.read().rows[0]; r.role != roleHandedOver || r.epoch != 2 {
			t.Fatalf("%s: shard 0's row moved to %+v", s.name, r)
		}
	}
	for _, shard := range calls {
		if shard != 1 {
			t.Errorf("PromoteShard(%d), want shard 1", shard)
		}
	}
}

// TestStateWriteErrorsSurface: a lease grant and a new primary pointer
// that fail to persist are reported — to the pull loop and the election,
// which records them for /statsz — instead of vanishing, and the
// in-memory state advances regardless.
func TestStateWriteErrorsSurface(t *testing.T) {
	pst := openDurable(t, t.TempDir())
	prim, err := NewPrimary(pst, 1)
	if err != nil {
		t.Fatal(err)
	}
	prim.SetLeaseTTL(300 * time.Millisecond)
	tsP := primaryServer(t, prim)

	folDir := t.TempDir()
	fol, err := NewFollower(tsP.URL, "http://follower-1", openDurable(t, folDir))
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Stop()
	// A regular file where the state directory belongs: every STATE.json
	// write fails from here on, even for root.
	if err := os.WriteFile(filepath.Join(folDir, stateDirName), []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := fol.pullOnce(0, 0); err == nil || !strings.Contains(err.Error(), "persist state") {
		t.Fatalf("pull with an unwritable lease grant returned %v, want a persist-state error", err)
	}
	if lease := fol.tab.read().rows[0].lease; lease.TTLMS != 300 {
		t.Fatalf("in-memory lease = %+v, want the 300ms grant adopted despite the failed write", lease)
	}

	// Through the election: adopting a higher-epoch claimant records the
	// failed write where /statsz shows it.
	winner := infoServer(t, InfoResponse{Role: "primary", Epoch: 9, Owned: []Claim{{Shard: 0, Epoch: 9}}})
	fol.SetAutoFailover(AutoConfig{Peers: []string{winner.URL}})
	tsP.Close() // or the last-gasp probe finds the primary alive
	fol.lapse()
	fol.tryFailover()
	if got := fol.PrimaryURL(); got != winner.URL {
		t.Fatalf("PrimaryURL = %q, want the election to have adopted %s", got, winner.URL)
	}
	if got := fol.Stats().LastError; !strings.Contains(got, "persist state") {
		t.Fatalf("Stats().LastError = %q, want the failed state write", got)
	}
}
