package history

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func queryStore(t *testing.T) *Store {
	t.Helper()
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r1 := sampleRecord("r1")
	r1.Results = append(r1.Results, NodeResult{
		Hyp: "ExcessiveSyncWaitingTime", Focus: "</Code/oned.f,/Machine,/Process,/SyncObject>",
		State: "true", Value: 0.4, ConcludedAt: 9,
	})
	r1.TrueCount = 2
	if err := st.Save(r1); err != nil {
		t.Fatal(err)
	}
	r2 := sampleRecord("r2")
	r2.Version = "B"
	if err := st.Save(r2); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRecordSelect(t *testing.T) {
	rec := sampleRecord("r1")
	rec.Results = append(rec.Results, NodeResult{Hyp: "X", Focus: "<f>", State: "pruned"})
	// Default: any concluded state.
	got := rec.Select(ResultFilter{})
	if len(got) != 2 {
		t.Errorf("Select(any concluded) = %d", len(got))
	}
	// Star includes pruned.
	if got := rec.Select(ResultFilter{State: "*"}); len(got) != 3 {
		t.Errorf("Select(*) = %d", len(got))
	}
	// Filters compose.
	got = rec.Select(ResultFilter{Hyp: "CPUbound", State: "false"})
	if len(got) != 1 || got[0].Hyp != "CPUbound" {
		t.Errorf("Select(CPUbound,false) = %+v", got)
	}
	if got := rec.Select(ResultFilter{MinValue: 0.3}); len(got) != 1 || got[0].Value != 0.5 {
		t.Errorf("Select(min 0.3) = %+v", got)
	}
	if got := rec.Select(ResultFilter{FocusContains: "/Machine,"}); len(got) != 2 {
		t.Errorf("Select(focus substr) = %+v", got)
	}
	// Results ordered by descending value.
	all := rec.Select(ResultFilter{})
	for i := 1; i < len(all); i++ {
		if all[i-1].Value < all[i].Value {
			t.Error("Select not ordered by value")
		}
	}
}

func TestStoreQuery(t *testing.T) {
	st := queryStore(t)
	hits, err := st.Query("poisson", "", ResultFilter{State: "true"})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 { // 2 from A/r1 + 1 from B/r2
		t.Fatalf("hits = %d", len(hits))
	}
	for i := 1; i < len(hits); i++ {
		if hits[i-1].Result.Value < hits[i].Result.Value {
			t.Error("query hits not ordered by value")
		}
	}
	// Version filter.
	hits, _ = st.Query("poisson", "B", ResultFilter{State: "true"})
	if len(hits) != 1 || hits[0].Version != "B" {
		t.Errorf("version filter = %+v", hits)
	}
	// Empty app rejected.
	if _, err := st.Query("", "", ResultFilter{}); err == nil {
		t.Error("empty app accepted")
	}
}

func TestPersistentBottlenecks(t *testing.T) {
	st := queryStore(t)
	counts, err := st.PersistentBottlenecks("poisson", "", 2)
	if err != nil {
		t.Fatal(err)
	}
	// The whole-program sync bottleneck is true in both runs.
	key := "ExcessiveSyncWaitingTime </Code,/Machine,/Process,/SyncObject>"
	if counts[key] != 2 {
		t.Errorf("persistent counts = %v", counts)
	}
	// The oned.f refinement is true in only one run: filtered out.
	if len(counts) != 1 {
		t.Errorf("persistent set = %v", counts)
	}
	// Threshold 1 keeps both.
	counts, _ = st.PersistentBottlenecks("poisson", "", 1)
	if len(counts) != 2 {
		t.Errorf("minRuns=1 set = %v", counts)
	}
}

// collectQueryHitsRef is the version collectQueryHits replaced, kept as
// its reference: every record's matches sorted by value (Select), then
// all of them sorted again by value and run identity.
func collectQueryHitsRef(recs []*RunRecord, f ResultFilter) []QueryHit {
	var out []QueryHit
	for _, rec := range recs {
		for _, nr := range rec.Select(f) {
			out = append(out, QueryHit{App: rec.App, Version: rec.Version, RunID: rec.RunID, Result: nr})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Result.Value != out[j].Result.Value {
			return out[i].Result.Value > out[j].Result.Value
		}
		if out[i].Version != out[j].Version {
			return out[i].Version < out[j].Version
		}
		return out[i].RunID < out[j].RunID
	})
	return out
}

// countPersistentRef counts through TrueResults, as countPersistent did.
func countPersistentRef(recs []*RunRecord, minRuns int) map[string]int {
	counts := make(map[string]int)
	for _, rec := range recs {
		seen := make(map[string]bool)
		for _, nr := range rec.TrueResults() {
			if k := nr.Hyp + " " + nr.Focus; !seen[k] {
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

// TestQueryMatchesTwoSortReference: one stable sort over unsorted
// matches orders the hits exactly as sorting each record first did, on
// testing/quick records whose values are drawn from four, so that most
// hits tie with hits of their own and of other records.
func TestQueryMatchesTwoSortReference(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	values := []float64{0, math.Copysign(0, -1), 0.25, 0.5}
	for round := 0; round < 200; round++ {
		var recs []*RunRecord
		for i, n := 0, 1+r.Intn(5); i < n; i++ {
			rec := randomRecord(r)
			rec.App, rec.Version, rec.RunID = "a", string(rune('A'+i/2)), fmt.Sprintf("r%d", i)
			for j := range rec.Results {
				nr := &rec.Results[j]
				nr.Value = values[r.Intn(len(values))]
				nr.Hyp = []string{"CPUbound", "ExcessiveSyncWaitingTime"}[r.Intn(2)]
				nr.Focus = fmt.Sprintf("</Code/f%d>", r.Intn(4))
			}
			recs = append(recs, rec)
		}
		for _, f := range []ResultFilter{
			{}, {State: "*"}, {State: "true"}, {Hyp: "CPUbound", MinValue: 0.25}, {FocusContains: "f1", State: "false"},
		} {
			got, want := collectQueryHits(recs, f), collectQueryHitsRef(recs, f)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d, filter %+v: hits differ from the two-sort reference:\ngot  %+v\nwant %+v", round, f, got, want)
			}
		}
		for minRuns := 1; minRuns <= 2; minRuns++ {
			if got, want := countPersistent(recs, minRuns), countPersistentRef(recs, minRuns); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: persistent counts %v, reference %v", round, got, want)
			}
		}
	}
}
