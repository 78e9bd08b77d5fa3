package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"time"

	"repro/internal/history"
)

// FetchInfo retrieves a node's replication handshake — shape, role,
// epoch, and electorate. It is the only GET of /api/v1/replica/info.
func FetchInfo(ctx context.Context, base string) (InfoResponse, error) {
	var info InfoResponse
	body, err := exchange(ctx, http.MethodGet, base+"/api/v1/replica/info", nil, nil)
	if err == nil {
		err = json.Unmarshal(body, &info)
	}
	return info, err
}

// peerInfo is one reachable peer's handshake, the URL it answered at,
// and its identity in the election's ordering: the URL it advertises,
// or url when it advertises none.
type peerInfo struct {
	url, id string
	InfoResponse
}

// probe asks every peer for its info handshake, in order, each bounded
// by timeout, and returns the ones that answered; empty entries, self
// and repeats are skipped. The election, the primary-side detector and
// the startup rejoin check all read the cluster through this one scan,
// so this is where a claim on a shard this node does not have (shards is
// its count) is dropped: what a peer says is not trusted to be in range.
func probe(ctx context.Context, peers []string, self string, shards int, timeout time.Duration) []peerInfo {
	var out []peerInfo
	seen := map[string]bool{"": true, self: true}
	for _, peer := range peers {
		if seen[peer] {
			continue
		}
		seen[peer] = true
		pctx, cancel := context.WithTimeout(ctx, timeout)
		info, err := FetchInfo(pctx, peer)
		cancel()
		if err != nil {
			continue
		}
		info.Owned = slices.DeleteFunc(info.Owned, func(c Claim) bool { return c.Shard < 0 || c.Shard >= shards })
		id := info.Advertise
		if id == "" {
			id = peer
		}
		out = append(out, peerInfo{url: peer, id: id, InfoResponse: info})
	}
	return out
}

// Superseded is one shard of this node that a peer claimed while the node
// was down: the claim, and the URL the claimant answered at.
type Superseded struct {
	Claim
	Winner string
}

// SupersededBy is the startup rejoin check (DESIGN.md §15), run before
// the store at storeDir opens — so before StartWAL bumps the journals: it
// reads what each shard's directory says survived (its STATE.json, its
// journal's generation), probes the persisted follower registry
// (PEERS.json) plus peers for their claims, and returns the shards this
// node lost, each with the peer to follow it from (role.go, lostAtBoot).
// The caller comes up following those, and owning the rest.
func SupersededBy(ctx context.Context, storeDir string, peers []string, self string) []Superseded {
	dirs := history.ShardDirs(storeDir)
	cols, journals := make([]replState, len(dirs)), make([]uint64, len(dirs))
	for i, dir := range dirs {
		cols[i], _ = loadState(dir)
		journals[i], _ = history.JournalEpoch(dir)
	}
	known := append(loadPeers(PeersFilePath(storeDir)), peers...)
	// The store is not open yet: Rejoin checks the shards against it.
	return lostAtBoot(cols, journals, probe(ctx, known, self, math.MaxInt, 2*time.Second))
}

// AwaitPrimary fetches the layout handshake of the primary at base,
// retrying until ctx ends while it is still coming up (a follower is
// typically started seconds after — or concurrently with — its
// primary), and refuses a node that does not claim the primary role or
// that speaks another generation of the replication bodies — what such a
// pair would otherwise do is loop on undecodable pulls.
func AwaitPrimary(ctx context.Context, base string) (InfoResponse, error) {
	for {
		actx, cancel := context.WithTimeout(ctx, 5*time.Second)
		info, err := FetchInfo(actx, base)
		cancel()
		if err == nil {
			if !info.ClaimsPrimary() {
				return info, fmt.Errorf("replica: %s is %q, not a primary", base, info.Role)
			}
			if info.Wire != wireGeneration {
				return info, fmt.Errorf("replica: %s speaks replication wire %d, this build speaks %d: run the same build on both", base, info.Wire, wireGeneration)
			}
			return info, nil
		}
		select {
		case <-ctx.Done():
			return info, fmt.Errorf("replica: primary %s unreachable: %w", base, err)
		case <-time.After(250 * time.Millisecond):
		}
	}
}
