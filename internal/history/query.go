package history

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// ResultFilter selects (hypothesis : focus) outcomes across stored runs —
// the querying half of the paper's "infrastructure for storing, naming,
// and querying multi-execution performance data".
type ResultFilter struct {
	// Hyp filters by hypothesis name ("" = any).
	Hyp string
	// FocusContains keeps results whose canonical focus name contains the
	// substring ("" = any).
	FocusContains string
	// State filters by conclusion state: "true", "false", "" (any
	// concluded), or "*" (including pruned/pending).
	State string
	// MinValue keeps results with at least this measured value.
	MinValue float64
}

func (f ResultFilter) match(nr *NodeResult) bool {
	if f.Hyp != "" && f.Hyp != nr.Hyp {
		return false
	}
	if f.FocusContains != "" && !strings.Contains(nr.Focus, f.FocusContains) {
		return false
	}
	switch f.State {
	case "*":
	case "":
		if nr.State != "true" && nr.State != "false" {
			return false
		}
	default:
		if nr.State != f.State {
			return false
		}
	}
	return nr.Value >= f.MinValue
}

// Select returns the record's results matching the filter, ordered by
// descending value.
func (r *RunRecord) Select(f ResultFilter) []NodeResult {
	var out []NodeResult
	for i := range r.Results {
		if nr := &r.Results[i]; f.match(nr) {
			out = append(out, *nr)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Value > out[j].Value })
	return out
}

// QueryHit is one matching result with its run's identity.
type QueryHit struct {
	App     string
	Version string
	RunID   string
	Result  NodeResult
}

// Query applies the filter across every stored run of the application
// (any version when version is ""), ordered by descending value then run
// identity.
func (s *Store) Query(app, version string, f ResultFilter) ([]QueryHit, error) {
	if app == "" {
		return nil, fmt.Errorf("history: query needs an application name")
	}
	recs, err := s.LoadAll(app, version)
	if err != nil {
		return nil, err
	}
	return collectQueryHits(recs, f), nil
}

// collectQueryHits applies the filter to records already in canonical
// (app, version, run id) order and sorts the hits by descending value
// then run identity, hits that tie on both in the order their record's
// Results hold them. Store and ShardedStore share this so a sharded
// query over the merged record set is byte-identical to a single-store
// one. What is sorted is one small key a match — value, record, result
// index, a total order — and the hits are laid out from the sorted keys:
// moving whole QueryHits through a stable sort cost more than the rest
// of a query together.
func collectQueryHits(recs []*RunRecord, f ResultFilter) []QueryHit {
	type match struct {
		value    float64
		rec, res int
	}
	var ms []match
	for ri, rec := range recs {
		for i := range rec.Results {
			if nr := &rec.Results[i]; f.match(nr) {
				ms = append(ms, match{nr.Value, ri, i})
			}
		}
	}
	if len(ms) == 0 {
		return nil
	}
	slices.SortFunc(ms, func(a, b match) int {
		if c := cmp.Compare(b.value, a.value); c != 0 {
			return c
		}
		if a.rec == b.rec {
			return cmp.Compare(a.res, b.res)
		}
		if c := strings.Compare(recs[a.rec].Version, recs[b.rec].Version); c != 0 {
			return c
		}
		if c := strings.Compare(recs[a.rec].RunID, recs[b.rec].RunID); c != 0 {
			return c
		}
		return cmp.Compare(a.rec, b.rec)
	})
	out := make([]QueryHit, len(ms))
	for i, m := range ms {
		rec := recs[m.rec]
		out[i] = QueryHit{App: rec.App, Version: rec.Version, RunID: rec.RunID, Result: rec.Results[m.res]}
	}
	return out
}

// PersistentBottlenecks returns the (hypothesis : focus) pairs that
// tested true in at least minRuns of the application's stored runs — the
// recurring problems worth prioritizing across a whole tuning study.
func (s *Store) PersistentBottlenecks(app, version string, minRuns int) (map[string]int, error) {
	recs, err := s.LoadAll(app, version)
	if err != nil {
		return nil, err
	}
	return countPersistent(recs, minRuns), nil
}

// countPersistent counts, per (hypothesis : focus) pair, the records in
// which it tested true, then drops pairs below minRuns. The minRuns cut
// happens after counting the full record set, so a sharded store must
// count across all shards before filtering (a version-spanning query
// touches every shard).
func countPersistent(recs []*RunRecord, minRuns int) map[string]int {
	counts := make(map[string]int)
	for _, rec := range recs {
		seen := make(map[string]bool)
		for i := range rec.Results {
			nr := &rec.Results[i]
			if nr.State != "true" {
				continue
			}
			k := nr.Hyp + " " + nr.Focus
			if !seen[k] {
				seen[k] = true
				counts[k]++
			}
		}
	}
	for k, c := range counts {
		if c < minRuns {
			delete(counts, k)
		}
	}
	return counts
}
