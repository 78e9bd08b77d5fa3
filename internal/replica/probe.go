package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
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
// the startup rejoin check all read the cluster through this one scan.
func probe(ctx context.Context, peers []string, self string, timeout time.Duration) []peerInfo {
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
		id := info.Advertise
		if id == "" {
			id = peer
		}
		out = append(out, peerInfo{url: peer, id: id, InfoResponse: info})
	}
	return out
}

// SupersededBy is the startup rejoin check (DESIGN.md §15), run before
// the store at storeDir opens: it probes the persisted follower registry
// (PEERS.json) plus peers for a node claiming the primary role under a
// strictly newer epoch than the store's on-disk generation. A hit means
// a promotion happened while this primary was down: it returns the
// winner's URL and the two epochs, and the caller demotes.
func SupersededBy(ctx context.Context, storeDir string, peers []string, self string) (winner string, theirs, ours uint64) {
	ours = history.MaxJournalEpoch(storeDir)
	known := append(loadPeers(PeersFilePath(storeDir)), peers...)
	for _, info := range probe(ctx, known, self, 2*time.Second) {
		if info.ClaimsPrimary() && info.Epoch > ours && info.Epoch > theirs {
			winner, theirs = info.url, info.Epoch
		}
	}
	return winner, theirs, ours
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
