package history

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"
)

// The durability benchmarks price the WAL: what one journaled append
// costs under each sync policy, what building a put's mutation and
// reading its frame back cost with no disk at all, and what a restart
// pays to roll the journal forward into the record files. The repo's
// benchmark (bench/, BENCHMARK.json) reports the same layers on real
// records as history.wal_append_*_us_p50, history.save_mem_us_p50 and
// history.reopen_s; these are the ten-second local version.

func benchWALEntry(i int, data []byte) WALEntry {
	return WALEntry{
		Op: walOpPut, App: "poisson", Version: "C",
		RunID: fmt.Sprintf("r%04d", i),
		Data:  data,
	}
}

// benchRecord is a record of the benchmark corpus's mean size: pcrun
// records encode to 45–483 KB, about 180 KB on average.
func benchRecord() *RunRecord { return corpusShapedRecord("bench", 650) }

// benchWALData is benchRecord's canonical encoding — what a put frame
// carries.
func benchWALData(b *testing.B) []byte {
	data, err := json.MarshalIndent(benchRecord(), "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if len(data) < 150<<10 || len(data) > 210<<10 {
		b.Fatalf("bench record encodes to %d bytes, want about 180 KB", len(data))
	}
	return data
}

func benchDurabilityAppend(b *testing.B, sync SyncPolicy) {
	w, err := StartWAL(b.TempDir(), WALOptions{Sync: sync, SegmentBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	data := benchWALData(b)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(benchWALEntry(i, data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurabilityAppendAlways fsyncs every append: the price of
// "acknowledged means durable across power loss".
func BenchmarkDurabilityAppendAlways(b *testing.B) {
	benchDurabilityAppend(b, SyncAlways)
}

// BenchmarkDurabilityAppendInterval fsyncs at most every 100ms — the
// pcd default, bounding the power-loss window to that interval.
func BenchmarkDurabilityAppendInterval(b *testing.B) {
	benchDurabilityAppend(b, SyncIntervalPolicy)
}

// BenchmarkDurabilityAppendNone never fsyncs: frame + write only, the
// floor the sync policies are measured against.
func BenchmarkDurabilityAppendNone(b *testing.B) {
	benchDurabilityAppend(b, SyncNone)
}

// benchSink keeps the measured calls' results alive.
var benchSink any

// BenchmarkPutMutation is a Save's work above the journal and the
// backend: validate, the one MarshalIndent, the index clone.
func BenchmarkPutMutation(b *testing.B) {
	rec := benchRecord()
	b.SetBytes(int64(len(benchWALData(b))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := putMutation(rec)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = m
	}
}

// BenchmarkEncodeWALFrame is what Append does before it takes the
// journal lock: one buffer, one copy of the record bytes, one CRC.
func BenchmarkEncodeWALFrame(b *testing.B) {
	e := benchWALEntry(0, benchWALData(b))
	b.SetBytes(int64(len(e.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := EncodeWALFrame(e)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = frame
	}
}

// BenchmarkDecodeWALPayload is what replay and a follower pay per frame
// before the record itself is decoded: the CRC and the slicing.
func BenchmarkDecodeWALPayload(b *testing.B) {
	frame, err := EncodeWALFrame(benchWALEntry(0, benchWALData(b)))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries, _, bad := DecodeWALFrames(frame)
		if bad != "" {
			b.Fatal(bad)
		}
		benchSink = entries
	}
}

// benchDurabilityReplay measures rolling a journal of n puts forward
// into an empty filesystem backend — the worst-case restart, where no
// journaled write reached its record file before the crash.
func benchDurabilityReplay(b *testing.B, n int) {
	st, err := NewStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	entries := make([]WALEntry, n)
	for i := range entries {
		m, err := putMutation(sampleRecord(fmt.Sprintf("r%04d", i)))
		if err != nil {
			b.Fatal(err)
		}
		entries[i] = m.WALEntry
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, e := range entries {
			if err := st.Backend().Delete(e.Key()); err != nil && !errors.Is(err, os.ErrNotExist) {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		ms, _ := foldMutations(entries)
		applied, err := st.commit(ms, commitRedo)
		if err != nil {
			b.Fatal(err)
		}
		if applied != n {
			b.Fatalf("replayed %d of %d entries", applied, n)
		}
	}
}

func BenchmarkDurabilityReplay8(b *testing.B)   { benchDurabilityReplay(b, 8) }
func BenchmarkDurabilityReplay64(b *testing.B)  { benchDurabilityReplay(b, 64) }
func BenchmarkDurabilityReplay256(b *testing.B) { benchDurabilityReplay(b, 256) }

// benchRealRecords are the real records (realrecord_test.go) and their
// canonical encodings, for the codec benchmarks' real cases.
func benchRealRecords(b *testing.B) ([]*RunRecord, [][]byte, int64) {
	recs, err := realRecords()
	if err != nil {
		b.Fatal(err)
	}
	var data [][]byte
	var size int64
	for _, rec := range recs {
		data = append(data, EncodeRecord(rec))
		size += int64(len(data[len(data)-1]))
	}
	return recs, data, size
}

// BenchmarkRecordEncode prices the one encoding a put pays for, the
// codec against the reflective path it replaced; real encodes the two
// real records per op.
func BenchmarkRecordEncode(b *testing.B) {
	rec := benchRecord()
	size := int64(len(benchWALData(b)))
	b.Run("real", func(b *testing.B) {
		recs, _, size := benchRealRecords(b)
		b.ReportAllocs()
		b.SetBytes(size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, rec := range recs {
				benchSink = EncodeRecord(rec)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(size)
		for i := 0; i < b.N; i++ {
			benchSink = EncodeRecord(rec)
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(size)
		for i := 0; i < b.N; i++ {
			data, err := json.MarshalIndent(rec, "", "  ")
			if err != nil {
				b.Fatal(err)
			}
			benchSink = data
		}
	})
}

// BenchmarkRecordDecode prices the decode that admits a record from a
// request body, a journal frame or a record file; real/direct and
// real/put decode the two real records per op.
func BenchmarkRecordDecode(b *testing.B) {
	data := benchWALData(b)
	b.Run("real", func(b *testing.B) {
		_, real, size := benchRealRecords(b)
		b.Run("direct", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				for _, data := range real {
					rec, ok := ParseRecord(data)
					if !ok {
						b.Fatal("the strict decoder bailed")
					}
					benchSink = rec
				}
			}
		})
		b.Run("put", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				for _, data := range real {
					e, err := DecodePut(data)
					if err != nil || e.data == nil {
						b.Fatal("the canonical check refused the record's own encoding", err)
					}
					benchSink = e
				}
			}
		})
	})
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			rec, ok := ParseRecord(data)
			if !ok {
				b.Fatal("the strict decoder bailed")
			}
			benchSink = rec
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			rec := &RunRecord{}
			if err := json.Unmarshal(data, rec); err != nil {
				b.Fatal(err)
			}
			benchSink = rec
		}
	})
	// A put body's decode: direct, and the canonical check beside it.
	b.Run("put", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			e, err := DecodePut(data)
			if err != nil || e.data == nil {
				b.Fatal("the canonical check refused the record's own encoding", err)
			}
			benchSink = e
		}
	})
}

// commitGap is the pause a closed-loop client leaves between its writes
// (the benchmark's single client, round trip and pacing): the idle cases
// sleep it, off the clock, before each commit, which is when a store
// makes its spares.
const commitGap = 1500 * time.Microsecond

// A commitCase is one way benchCommits commits: k records a commit, back
// to back or, idle, with commitGap before each, at a segment size
// (0: the default).
type commitCase struct {
	name    string
	k       int
	idle    bool
	segment int64
}

var commitCases = []commitCase{{"k=1", 1, false, 0}, {"k=8", 8, false, 0}, {"idle/k=1", 1, true, 0}, {"idle/k=8", 8, true, 0}}

// benchCommits runs commit — k records of a store of keys, from at — on
// a fresh durable store at SyncAlways for each case, and reports the
// cost per record, the journal syncs per record (1 for a Save, 1/k for a
// batch) and the rotations per commit.
func benchCommits(b *testing.B, keys, size int, cases []commitCase, commit func(st *Store, at, k int) (int, error)) {
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			st, err := OpenStoreDurable(b.TempDir(), DurableOptions{Create: true, WAL: true, WALOptions: WALOptions{Sync: SyncAlways, SegmentBytes: c.segment}})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.SetBytes(int64(c.k * size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.idle {
					b.StopTimer()
					time.Sleep(commitGap)
					b.StartTimer()
				}
				if n, err := commit(st, i*c.k%keys, c.k); err != nil || n != c.k {
					b.Fatalf("commit = %d, %v", n, err)
				}
			}
			b.StopTimer()
			records := float64(b.N * c.k)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/records, "ns/record")
			b.ReportMetric(float64(st.WALStats().Syncs)/records, "syncs/record")
			b.ReportMetric(float64(st.WALStats().Rotations)/float64(b.N), "rotations/op")
		})
	}
}

// BenchmarkCommit prices one commit of k records of the corpus's mean
// size on a durable store at SyncAlways, over the bare FSBackend — the
// whole I/O of a Save (k=1) and of a PutBatch of eight (k=8) with the
// mutations built beforehand: the journal group, the staged record files
// beside it, the renames, the directory sync. Back to back, a store's
// spares run out and each record file is created in its commit; the idle
// cases leave the gap in which they are made. In rotate every commit
// crosses a segment boundary (a save, each after the gap in which the
// next segment can be made ahead). Point TMPDIR at the file system to be
// priced.
func BenchmarkCommit(b *testing.B) {
	const keys = 64 // cycled, so the store directory stays a dozen megabytes
	ms := make([]mutation, keys)
	for i := range ms {
		rec := benchRecord()
		rec.RunID = fmt.Sprintf("r%04d", i)
		var err error
		if ms[i], err = putMutation(rec); err != nil {
			b.Fatal(err)
		}
	}
	cases := append(commitCases, commitCase{"rotate", 1, true, 1})
	benchCommits(b, keys, len(ms[0].Data), cases, func(st *Store, at, k int) (int, error) {
		return st.commit(ms[at:at+k], commitWrite)
	})
}

// BenchmarkApplyRun prices a follower's fold of k replicated put entries
// of BenchmarkCommit's records at SyncAlways over the bare FSBackend:
// the entries arrive encoded, as a pull delivers them, so beside
// BenchmarkCommit's price (mutations built beforehand) it shows what
// decoding them — on up to GOMAXPROCS goroutines, before the commit —
// adds. Point TMPDIR at the file system to be priced.
func BenchmarkApplyRun(b *testing.B) {
	const keys = 64
	entries := make([]WALEntry, keys)
	for i := range entries {
		rec := benchRecord()
		rec.RunID = fmt.Sprintf("r%04d", i)
		entries[i] = StoredEntry(rec)
	}
	if len(entries[0].Data) != len(benchWALData(b)) {
		b.Fatalf("a stored entry carries %d bytes, the journal benchmarks' record %d", len(entries[0].Data), len(benchWALData(b)))
	}
	benchCommits(b, keys, len(entries[0].Data), commitCases, func(st *Store, at, k int) (int, error) {
		return st.ApplyRun(entries[at : at+k])
	})
}
