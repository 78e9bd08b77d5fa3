package history

import (
	"fmt"
	"testing"
)

func benchStoreDir(b *testing.B, n int) string {
	b.Helper()
	dir := b.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rec := sampleRecord(fmt.Sprintf("run%03d", i))
		if err := st.Save(rec); err != nil {
			b.Fatal(err)
		}
	}
	return dir
}

// BenchmarkStoreQuery measures Query against the in-memory index: the
// store is opened (and its files decoded) once, then each query is a
// pure index read.
func BenchmarkStoreQuery(b *testing.B) {
	dir := benchStoreDir(b, 32)
	st, err := NewStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits, err := st.Query("poisson", "A", ResultFilter{State: "true"})
		if err != nil || len(hits) == 0 {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreQueryUncached is the pre-index behavior: every query
// re-reads and re-unmarshals every record file, as the old store did on
// each call.
func BenchmarkStoreQueryUncached(b *testing.B) {
	dir := benchStoreDir(b, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := NewStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		hits, err := st.Query("poisson", "A", ResultFilter{State: "true"})
		if err != nil || len(hits) == 0 {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectQueryHits is the store's whole share of a wide query
// — 28 corpus-shaped runs, about 3 000 matches — against the two-sort
// version it replaced (kept as the reference in query_test.go).
func BenchmarkCollectQueryHits(b *testing.B) {
	var recs []*RunRecord
	for i := 0; i < 28; i++ {
		rec := corpusShapedRecord(fmt.Sprintf("r%02d", i), 650)
		for j := range rec.Results {
			rec.Results[j].Value *= 1 + float64(i*7+j%5)/10000
		}
		recs = append(recs, rec)
	}
	for name, collect := range map[string]func([]*RunRecord, ResultFilter) []QueryHit{
		"one-sort": collectQueryHits, "two-sort": collectQueryHitsRef,
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = collect(recs, ResultFilter{State: "true"})
			}
		})
	}
}
