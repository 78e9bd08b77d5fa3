package metric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustHist(t *testing.T, w float64) *TimeHistogram {
	t.Helper()
	h, err := NewTimeHistogram(w)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewTimeHistogramValidation(t *testing.T) {
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewTimeHistogram(w); err == nil {
			t.Errorf("NewTimeHistogram(%v) succeeded", w)
		}
	}
}

func TestAddAndSumSingleBin(t *testing.T) {
	h := mustHist(t, 1.0)
	if err := h.Add(0.2, 0.8, 0.6); err != nil {
		t.Fatal(err)
	}
	if got := h.Sum(0, 1); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("Sum(0,1) = %v, want 0.6", got)
	}
	if h.NumBins() != 1 {
		t.Errorf("NumBins = %d", h.NumBins())
	}
}

func TestAddSpreadsProportionally(t *testing.T) {
	h := mustHist(t, 1.0)
	// [0.5, 2.5): half of bin 0's coverage is 0.5s, bin 1 full 1s, bin 2 0.5s.
	if err := h.Add(0.5, 2.5, 2.0); err != nil {
		t.Fatal(err)
	}
	if got := h.Bin(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("bin0 = %v, want 0.5", got)
	}
	if got := h.Bin(1); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("bin1 = %v, want 1.0", got)
	}
	if got := h.Bin(2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("bin2 = %v, want 0.5", got)
	}
	if got := h.Total(); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("Total = %v", got)
	}
	if got := h.maxTime; got != 2.5 {
		t.Errorf("MaxTime = %v", got)
	}
}

func TestZeroLengthIntervalDeposit(t *testing.T) {
	h := mustHist(t, 0.5)
	if err := h.Add(1.2, 1.2, 3.0); err != nil {
		t.Fatal(err)
	}
	if got := h.Sum(1.0, 1.5); math.Abs(got-3.0) > 1e-12 {
		t.Errorf("Sum around instant deposit = %v", got)
	}
}

func TestAddValidation(t *testing.T) {
	h := mustHist(t, 1.0)
	if err := h.Add(-1, 0, 1); err == nil {
		t.Error("negative start accepted")
	}
	if err := h.Add(2, 1, 1); err == nil {
		t.Error("end < start accepted")
	}
	if err := h.Add(0, 1, math.NaN()); err == nil {
		t.Error("NaN amount accepted")
	}
	if err := h.Add(0, 1, 0); err != nil {
		t.Errorf("zero amount rejected: %v", err)
	}
}

func TestSumPartialWindows(t *testing.T) {
	h := mustHist(t, 1.0)
	_ = h.Add(0, 4, 4.0) // 1.0 per bin
	if got := h.Sum(0.5, 1.5); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("Sum(0.5,1.5) = %v, want 1.0", got)
	}
	if got := h.Sum(3.5, 10); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Sum(3.5,10) = %v, want 0.5", got)
	}
	if got := h.Sum(10, 20); got != 0 {
		t.Errorf("Sum beyond data = %v", got)
	}
	if got := h.Sum(2, 2); got != 0 {
		t.Errorf("empty window = %v", got)
	}
}

func TestRate(t *testing.T) {
	h := mustHist(t, 0.5)
	_ = h.Add(0, 2, 1.0) // 0.5 value per second
	if got := h.Rate(0, 2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Rate = %v, want 0.5", got)
	}
	if got := h.Rate(1, 1); got != 0 {
		t.Errorf("Rate of empty window = %v", got)
	}
}

func TestBinOutOfRange(t *testing.T) {
	h := mustHist(t, 1.0)
	_ = h.Add(0, 1, 1)
	if h.Bin(-1) != 0 || h.Bin(100) != 0 {
		t.Error("out-of-range bins should read 0")
	}
}

func TestQuickConservation(t *testing.T) {
	// Total always equals the sum of all added amounts, and a full-range
	// Sum recovers it, for random interval sequences and bin widths.
	cfg := &quick.Config{MaxCount: 200}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, err := NewTimeHistogram(0.1 + rng.Float64()*2)
		if err != nil {
			return false
		}
		var want float64
		end := 0.0
		for i := 0; i < 50; i++ {
			s := rng.Float64() * 100
			e := s + rng.Float64()*10
			a := rng.Float64() * 5
			if err := h.Add(s, e, a); err != nil {
				return false
			}
			want += a
			if e > end {
				end = e
			}
		}
		if math.Abs(h.Total()-want) > 1e-9*math.Max(1, want) {
			return false
		}
		got := h.Sum(0, end+h.binWidth)
		return math.Abs(got-want) < 1e-6*math.Max(1, want)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickDisjointWindowsSumToTotal(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	prop := func(seed int64, cut float64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, _ := NewTimeHistogram(0.25)
		for i := 0; i < 20; i++ {
			s := rng.Float64() * 10
			_ = h.Add(s, s+rng.Float64()*3, rng.Float64())
		}
		c := math.Mod(math.Abs(cut), 15)
		lo := h.Sum(0, c)
		hi := h.Sum(c, 20)
		return math.Abs(lo+hi-h.Total()) < 1e-6
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestFoldingHistogram(t *testing.T) {
	h, err := NewFoldingTimeHistogram(1.0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		_ = h.Add(float64(i), float64(i)+1, 1.0)
	}
	if h.folds != 0 || h.binWidth != 1.0 {
		t.Fatalf("premature fold: folds=%d width=%v", h.folds, h.binWidth)
	}
	// The fifth second forces one fold: width 2, bins [2,2,1,0...].
	_ = h.Add(4, 5, 1.0)
	if h.folds != 1 || h.binWidth != 2.0 {
		t.Fatalf("fold state: folds=%d width=%v", h.folds, h.binWidth)
	}
	if h.NumBins() > 4 {
		t.Errorf("bins = %d exceeds cap", h.NumBins())
	}
	if math.Abs(h.Total()-5.0) > 1e-12 {
		t.Errorf("total after fold = %v", h.Total())
	}
	if got := h.Sum(0, 10); math.Abs(got-5.0) > 1e-12 {
		t.Errorf("full sum after fold = %v", got)
	}
	// Coarser resolution, but conservation within merged pairs holds.
	if got := h.Sum(0, 2); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("Sum(0,2) = %v", got)
	}
}

func TestFoldingHistogramValidation(t *testing.T) {
	if _, err := NewFoldingTimeHistogram(1.0, 1); err == nil {
		t.Error("maxBins 1 accepted")
	}
	if _, err := NewFoldingTimeHistogram(0, 8); err == nil {
		t.Error("zero width accepted")
	}
}

func TestQuickFoldingConservesTotal(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		maxBins := 2 + rng.Intn(30)
		h, err := NewFoldingTimeHistogram(0.1+rng.Float64(), maxBins)
		if err != nil {
			return false
		}
		var want float64
		end := 0.0
		for i := 0; i < 40; i++ {
			s := rng.Float64() * 500
			e := s + rng.Float64()*20
			a := rng.Float64() * 3
			if err := h.Add(s, e, a); err != nil {
				return false
			}
			want += a
			if e > end {
				end = e
			}
		}
		if h.NumBins() > maxBins {
			return false
		}
		if math.Abs(h.Total()-want) > 1e-6*(1+want) {
			return false
		}
		got := h.Sum(0, end+2*h.binWidth)
		return math.Abs(got-want) < 1e-6*(1+want)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
