package metric

import (
	"sync"
	"time"
)

// Stages keeps one LatencyHistogram per (op, stage) — the time each
// stage of a server's requests took — behind one mutex, so any goroutine
// may record into it. A nil *Stages records nothing.
type Stages struct {
	mu sync.Mutex
	h  map[[2]string]*LatencyHistogram
}

// NewStages returns an empty set.
func NewStages() *Stages { return &Stages{h: map[[2]string]*LatencyHistogram{}} }

// Record adds one sample of d to (op, stage).
func (s *Stages) Record(op, stage string, d time.Duration) {
	if s == nil {
		return
	}
	k := [2]string{op, stage}
	s.mu.Lock()
	h := s.h[k]
	if h == nil {
		h = NewLatencyHistogram()
		s.h[k] = h
	}
	h.Record(d)
	s.mu.Unlock()
}

// Since records the time from t0 until now under (op, stage) and returns
// now, where the next stage starts: t = s.Since(op, "decode", t).
func (s *Stages) Since(op, stage string, t0 time.Time) time.Time {
	now := time.Now()
	s.Record(op, stage, now.Sub(t0))
	return now
}

// Quantile is the q-quantile of (op, stage), 0 before its first sample.
func (s *Stages) Quantile(op, stage string, q float64) time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h := s.h[[2]string{op, stage}]; h != nil {
		return h.Quantile(q)
	}
	return 0
}

// StageStats is one stage's row: how often it ran, and its median and
// 99th percentile in microseconds (within the histogram's 5 %).
type StageStats struct {
	Count uint64  `json:"count"`
	P50US float64 `json:"p50_us"`
	P99US float64 `json:"p99_us"`
}

// Snapshot returns every recorded stage, by op and then by stage.
func (s *Stages) Snapshot() map[string]map[string]StageStats {
	out := map[string]map[string]StageStats{}
	if s == nil {
		return out
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, h := range s.h {
		if out[k[0]] == nil {
			out[k[0]] = map[string]StageStats{}
		}
		out[k[0]][k[1]] = StageStats{
			Count: h.Count(),
			P50US: float64(h.Quantile(0.5)) / 1e3,
			P99US: float64(h.Quantile(0.99)) / 1e3,
		}
	}
	return out
}
