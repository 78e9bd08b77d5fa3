package server

import (
	"runtime"
	"testing"

	"repro/internal/history"
)

// TestPutBodyAllocations pins what decoding a put body of real records
// allocates per record against the decode that grew every record's
// results a quarter at a time (before: the same inputs measured on that
// build). A body of one record reserves
// its results up front from its own bytes and must allocate at most 60 %
// of before. A batch must allocate no more than before: the client's
// layout reserves each record's results from that record's piece only,
// and a body read in one pass — its records inside the runs array —
// reserves none, since its bytes are the whole body's, which may be
// 64 MiB (maxTrustedLength), not the record's.
func TestPutBodyAllocations(t *testing.T) {
	recs := corpusRecords(t)[:8]
	one, err := MarshalCanonical(recs[3]) // poisson D, 480 KB
	if err != nil {
		t.Fatal(err)
	}
	batch, err := MarshalCanonical(PutRunsRequest{Runs: recs})
	if err != nil {
		t.Fatal(err)
	}
	compact, err := MarshalCompact(PutRunsRequest{Runs: recs})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name          string
		records       int
		bytes, allocs float64 // before, per record
		bound         float64 // of before's bytes
		decode        func() error
	}{
		{"DecodePut of one record", 1, 913867, 1932, 0.6, func() error { _, err := history.DecodePut(one); return err }},
		{"DecodePutBatch, the client's layout", 8, 515971, 779, 1, func() error { _, err := history.DecodePutBatch(batch); return err }},
		{"DecodePutBatch, another layout", 8, 308870, 772.25, 1, func() error { _, err := history.DecodePutBatch(compact); return err }},
		{"UnmarshalCanonical of a PutRunsRequest", 8, 243290, 771.375, 1, func() error { var q PutRunsRequest; return UnmarshalCanonical(batch, &q) }},
	} {
		if err := c.decode(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		const runs = 5
		allocs := testing.AllocsPerRun(runs, func() { c.decode() }) / float64(c.records)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			c.decode()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(c.records)
		t.Logf("%s: %.0f bytes, %.3f allocations a record (before: %.0f, %.3f)", c.name, bytes, allocs, c.bytes, c.allocs)
		// 0.1 % over is the runtime's (under -race about 150 bytes a
		// record); a reservation from the whole body would be several times
		// the record's.
		if limit := c.bound * c.bytes * 1.001; bytes > limit || allocs > c.allocs {
			t.Errorf("%s: %.0f bytes and %.3f allocations a record, over %.0f and %.3f", c.name, bytes, allocs, limit, c.allocs)
		}
	}
}
