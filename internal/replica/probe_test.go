package replica

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/history"
)

// TestProbe: the one peer scan skips "", self and repeats, leaves an
// unreachable peer out of the result, keeps the order it was given, and
// remembers the URL each answer came from.
func TestProbe(t *testing.T) {
	a := infoServer(t, InfoResponse{Role: "follower", Advertise: "http://adv-a", AppliedSeq: 3})
	b := infoServer(t, InfoResponse{Role: "primary", Epoch: 4})
	self := "http://self"
	peers := []string{"", self, b.URL, "http://127.0.0.1:1", a.URL, b.URL}
	got := probe(context.Background(), peers, self, time.Second)
	if len(got) != 2 {
		t.Fatalf("probe returned %d peers, want 2 (b then a): %+v", len(got), got)
	}
	if got[0].url != b.URL || got[0].Epoch != 4 || got[0].id != b.URL {
		t.Errorf("first = %+v (id %q), want b reached at %s with no advertise", got[0], got[0].id, b.URL)
	}
	if got[1].url != a.URL || got[1].AppliedSeq != 3 || got[1].id != "http://adv-a" {
		t.Errorf("second = %+v (id %q), want a identified by its advertise URL", got[1], got[1].id)
	}
}

// TestClaimsPrimary pins the predicate against the expression it
// replaced, on every (role, promoted) combination.
func TestClaimsPrimary(t *testing.T) {
	for _, role := range []string{"primary", "follower"} {
		for _, promoted := range []bool{false, true} {
			info := InfoResponse{Role: role, Promoted: promoted}
			if want := info.Role == "primary" || info.Promoted; info.ClaimsPrimary() != want {
				t.Errorf("ClaimsPrimary(%s, promoted=%v) = %v, want %v", role, promoted, info.ClaimsPrimary(), want)
			}
		}
	}
}

// TestDetectorCheckShards walks one shard through the detector's
// shard-failover check: a blip shorter than the lease promotes nothing
// and recovery resets the clock; degradation held past one lease
// promotes exactly once, after a failed attempt is retried; a shard
// already promoted — by this detector or by the write path — is left
// alone.
func TestDetectorCheckShards(t *testing.T) {
	const ttl = 200 * time.Millisecond
	var (
		health  history.ShardInfo
		calls   []int
		failing bool
	)
	d := NewDetector(nil, DetectorConfig{
		LeaseTTL:    ttl,
		ShardHealth: func() []history.ShardInfo { return []history.ShardInfo{health} },
		PromoteShard: func(shard int) error {
			calls = append(calls, shard)
			if failing {
				return errors.New("no attached follower")
			}
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
		d.checkShards()
		if len(calls) != s.wantCalls {
			t.Fatalf("%s: PromoteShard called %d times (%v), want %d", s.name, len(calls), calls, s.wantCalls)
		}
	}
	for _, shard := range calls {
		if shard != 1 {
			t.Errorf("PromoteShard(%d), want shard 1", shard)
		}
	}

	// The write path got there first: the store reports the shard as
	// promoted, and the detector never calls.
	calls = nil
	d2 := NewDetector(nil, DetectorConfig{
		LeaseTTL: time.Millisecond,
		ShardHealth: func() []history.ShardInfo {
			return []history.ShardInfo{{Shard: 0, Degraded: true, Failover: "promoted"}}
		},
		PromoteShard: func(shard int) error { calls = append(calls, shard); return nil },
	})
	for i := 0; i < 3; i++ {
		d2.checkShards()
		time.Sleep(5 * time.Millisecond)
	}
	if len(calls) != 0 {
		t.Errorf("PromoteShard called %d times on a shard the write path already promoted", len(calls))
	}
}

// TestStateWriteErrorsSurface: a lease grant and a new primary pointer
// that fail to persist are reported — to the pull loop and the election,
// which record them for /statsz — instead of vanishing, and the
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
	fol.mu.Lock()
	lease := fol.states[0].Lease
	fol.mu.Unlock()
	if lease == nil || lease.TTLMS != 300 {
		t.Fatalf("in-memory lease = %+v, want the 300ms grant adopted despite the failed write", lease)
	}

	if err := fol.retarget("http://127.0.0.1:1"); err == nil || !strings.Contains(err.Error(), "persist state") {
		t.Fatalf("retarget with an unwritable state file returned %v, want a persist-state error", err)
	}
	if got := fol.PrimaryURL(); got != "http://127.0.0.1:1" {
		t.Fatalf("PrimaryURL = %q after a retarget whose write failed, want the new primary", got)
	}

	// Through the election: adopting a higher-epoch claimant records the
	// failed write where /statsz shows it.
	winner := infoServer(t, InfoResponse{Role: "primary", Epoch: 9})
	fol.SetAutoFailover(AutoConfig{Peers: []string{winner.URL}})
	fol.tryFailover()
	if got := fol.PrimaryURL(); got != winner.URL {
		t.Fatalf("PrimaryURL = %q, want the election to have adopted %s", got, winner.URL)
	}
	if got := fol.Stats().LastError; !strings.Contains(got, "persist state") {
		t.Fatalf("Stats().LastError = %q, want the failed state write", got)
	}
}
