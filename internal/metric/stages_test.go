package metric

import (
	"sync"
	"testing"
	"time"
)

// TestStagesConcurrentRecord: goroutines recording into shared and
// separate stages lose no sample, and each row reads as one histogram of
// the same samples would.
func TestStagesConcurrentRecord(t *testing.T) {
	s := NewStages()
	ref := NewLatencyHistogram()
	for i := 1; i <= 100; i++ {
		ref.Record(time.Duration(i) * time.Microsecond)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= 100; i++ {
				s.Record("put_run", "decode", time.Duration(i)*time.Microsecond)
			}
			s.Record("get_run", "encode", time.Millisecond)
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	row := snap["put_run"]["decode"]
	if row.Count != 400 {
		t.Fatalf("put_run/decode count = %d, want 400", row.Count)
	}
	if want := float64(ref.Quantile(0.5)) / 1e3; row.P50US != want {
		t.Errorf("p50 = %v µs, want %v", row.P50US, want)
	}
	if want := float64(ref.Quantile(0.99)) / 1e3; row.P99US != want {
		t.Errorf("p99 = %v µs, want %v", row.P99US, want)
	}
	if got := snap["get_run"]["encode"]; got.Count != 4 || got.P50US != 1000 {
		t.Errorf("get_run/encode = %+v, want 4 samples of 1000 µs", got)
	}
	if got := s.Quantile("get_run", "encode", 0.5); got != time.Millisecond {
		t.Errorf("Quantile = %v, want 1ms", got)
	}
	if got := s.Quantile("get_run", "read", 0.5); got != 0 {
		t.Errorf("Quantile of an unrecorded stage = %v, want 0", got)
	}
}

// TestStagesNil: a nil set records nothing and reports nothing, so a
// store no server observes pays one nil check a stage.
func TestStagesNil(t *testing.T) {
	var s *Stages
	s.Record("op", "stage", time.Second)
	t0 := time.Now()
	if t1 := s.Since("op", "stage", t0); t1.Before(t0) {
		t.Errorf("Since returned %v, before its start %v", t1, t0)
	}
	if len(s.Snapshot()) != 0 || s.Quantile("op", "stage", 0.5) != 0 {
		t.Error("a nil Stages reported a sample")
	}
}
