package metric

import (
	"fmt"
	"math"
)

// TimeHistogram accumulates a metric's value over virtual time in fixed
// width bins, in the style of Paradyn's dataManager. Values are added as
// (interval, amount) pairs and spread proportionally over the bins the
// interval covers. The histogram grows on demand.
type TimeHistogram struct {
	binWidth float64
	bins     []float64
	total    float64
	maxTime  float64
	// maxBins, when positive, bounds memory: once an interval would need
	// more bins, adjacent bins are folded together (pairwise merge,
	// doubling the bin width) — the mechanism Paradyn's dataManager used
	// to keep histograms of arbitrarily long executions in fixed space.
	maxBins int
	folds   int
}

// NewTimeHistogram creates an unbounded histogram with the given bin
// width in (virtual) seconds.
func NewTimeHistogram(binWidth float64) (*TimeHistogram, error) {
	if binWidth <= 0 || math.IsNaN(binWidth) || math.IsInf(binWidth, 0) {
		return nil, fmt.Errorf("metric: bin width must be positive, got %v", binWidth)
	}
	return &TimeHistogram{binWidth: binWidth}, nil
}

// NewFoldingTimeHistogram creates a histogram that never allocates more
// than maxBins bins: when an interval lands beyond the last bin, adjacent
// bins are merged pairwise and the bin width doubles. maxBins must be at
// least 2.
func NewFoldingTimeHistogram(binWidth float64, maxBins int) (*TimeHistogram, error) {
	h, err := NewTimeHistogram(binWidth)
	if err != nil {
		return nil, err
	}
	if maxBins < 2 {
		return nil, fmt.Errorf("metric: maxBins must be >= 2, got %d", maxBins)
	}
	h.maxBins = maxBins
	return h, nil
}

// NumBins returns the number of allocated bins.
func (h *TimeHistogram) NumBins() int { return len(h.bins) }

// Total returns the sum over all bins.
func (h *TimeHistogram) Total() float64 { return h.total }

// Add spreads amount uniformly over [start, end). A zero-length interval
// deposits the whole amount into the bin containing start.
func (h *TimeHistogram) Add(start, end, amount float64) error {
	if start < 0 || end < start || math.IsNaN(amount) {
		return fmt.Errorf("metric: bad interval [%v,%v) amount %v", start, end, amount)
	}
	if amount == 0 {
		return nil
	}
	if end > h.maxTime {
		h.maxTime = end
	}
	h.grow(end)
	h.total += amount
	if end == start {
		h.bins[h.binIndex(start)] += amount
		return nil
	}
	dur := end - start
	first := h.binIndex(start)
	last := h.binIndex(math.Nextafter(end, 0)) // bin containing the instant just before end
	for b := first; b <= last; b++ {
		lo := math.Max(start, float64(b)*h.binWidth)
		hi := math.Min(end, float64(b+1)*h.binWidth)
		if hi > lo {
			h.bins[b] += amount * (hi - lo) / dur
		}
	}
	return nil
}

// Sum returns the accumulated amount in [start, end), interpolating within
// partially covered bins.
func (h *TimeHistogram) Sum(start, end float64) float64 {
	if end <= start || len(h.bins) == 0 {
		return 0
	}
	limit := float64(len(h.bins)) * h.binWidth
	if start >= limit {
		return 0
	}
	if end > limit {
		end = limit
	}
	first := h.binIndex(start)
	last := h.binIndex(math.Nextafter(end, 0))
	if last >= len(h.bins) {
		last = len(h.bins) - 1
	}
	var sum float64
	for b := first; b <= last; b++ {
		lo := math.Max(start, float64(b)*h.binWidth)
		hi := math.Min(end, float64(b+1)*h.binWidth)
		if hi > lo {
			sum += h.bins[b] * (hi - lo) / h.binWidth
		}
	}
	return sum
}

// Rate returns Sum(start,end)/(end-start), the average value per second of
// virtual time over the window.
func (h *TimeHistogram) Rate(start, end float64) float64 {
	if end <= start {
		return 0
	}
	return h.Sum(start, end) / (end - start)
}

// Bin returns the accumulated value of bin i.
func (h *TimeHistogram) Bin(i int) float64 {
	if i < 0 || i >= len(h.bins) {
		return 0
	}
	return h.bins[i]
}

func (h *TimeHistogram) binIndex(t float64) int {
	i := int(t / h.binWidth)
	if i < 0 {
		return 0
	}
	return i
}

func (h *TimeHistogram) grow(end float64) {
	need := h.binIndex(math.Nextafter(end, 0)) + 1
	if end == 0 {
		need = 1
	}
	for h.maxBins > 0 && need > h.maxBins {
		h.fold()
		need = h.binIndex(math.Nextafter(end, 0)) + 1
	}
	for len(h.bins) < need {
		h.bins = append(h.bins, 0)
	}
}

// fold merges adjacent bin pairs and doubles the bin width, preserving
// the total and all window sums at the coarser resolution.
func (h *TimeHistogram) fold() {
	half := (len(h.bins) + 1) / 2
	folded := make([]float64, half, h.maxBins)
	for i, v := range h.bins {
		folded[i/2] += v
	}
	h.bins = folded
	h.binWidth *= 2
	h.folds++
}
