package history

import (
	"fmt"
	"testing"
)

// The resilience benchmarks bound the fault injector's overhead on the
// record path: an FSBackend writing through an armed injector at zero
// rates still takes its lock, hashes every call's key and counts it, and
// that tax — the delta against the bare backend — is what a fault run
// pays over the path that ships.

func benchKey(i int) RecordKey {
	return RecordKey{App: "poisson", Version: "A", RunID: fmt.Sprintf("r%d", i%64)}
}

// benchPut times Put on a fresh record directory, through an armed
// injector of cfg when cfg is non-nil.
func benchPut(b *testing.B, cfg *FaultConfig) {
	be, err := NewFSBackend(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if cfg != nil {
		faults := NewFaults(*cfg)
		faults.arm(be.dir)
		be.fs = faults
	}
	data := []byte(`{"app":"poisson"}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := be.Put(benchKey(i), data); err != nil && !IsTransient(err) {
			b.Fatal(err)
		}
	}
}

// BenchmarkResilienceBarePut is the baseline: the FSBackend on the real
// disk.
func BenchmarkResilienceBarePut(b *testing.B) { benchPut(b, nil) }

// BenchmarkResilienceFaultPutIdle writes through an armed injector with
// every rate zero: the delta is the injector's tax when nothing fires.
func BenchmarkResilienceFaultPutIdle(b *testing.B) { benchPut(b, &FaultConfig{Seed: 1}) }

// BenchmarkResilienceFaultPutArmed injects the chaos soak's calm mix, so
// the cost includes faults that actually fire; injected failures are
// expected, not fatal.
func BenchmarkResilienceFaultPutArmed(b *testing.B) {
	benchPut(b, &FaultConfig{Seed: 1, ErrRate: 0.02, TornWriteRate: 0.03})
}
