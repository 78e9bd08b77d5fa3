package history

import (
	"errors"
	"fmt"
	"os"
	"testing"
)

// The durability benchmarks price the WAL: what one journaled append
// costs under each sync policy (the fsync is the whole story), and what
// a restart pays to roll the journal forward into the record files.
// The repo's benchmark (bench/, BENCHMARK.json) reports the same layers
// on real records as history.wal_append_*_us_p50 and history.reopen_s.

func benchWALEntry(i int, data []byte) WALEntry {
	return WALEntry{
		Op: walOpPut, App: "poisson", Version: "A",
		RunID: fmt.Sprintf("r%04d", i),
		Data:  data,
	}
}

// benchWALData is a payload in the size range of a real encoded run
// record (a few KiB of canonical JSON).
func benchWALData() []byte {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte('a' + i%26)
	}
	return data
}

func benchDurabilityAppend(b *testing.B, sync SyncPolicy) {
	w, err := StartWAL(b.TempDir(), WALOptions{Sync: sync, SegmentBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	data := benchWALData()
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
		applied, err := st.commit(ms, true)
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
