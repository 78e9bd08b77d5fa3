package main

import (
	"math"
	"sort"
)

// percentile returns the exact p-th percentile (0 < p <= 100) of xs by
// the nearest-rank rule: the smallest sample with at least p% of the
// samples at or below it. No interpolation and no histogram buckets —
// the raw samples are kept, so the answer is one of them. An empty
// input reads 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, p)
}

func sortedPercentile(s []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the 50th percentile, averaging the two middle samples of an
// even count so that a two-mode input does not flip between its modes.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// stratifiedMedian is the mean of the per-stratum medians. A workload
// whose ops cycle through a fixed list of jobs of very different cost
// (diagnose: poisson D takes ten times mw) has a many-mode latency
// distribution whose plain median sits in a gap between two modes and
// jumps with the op count; the per-job medians are each steady, and
// their mean weighs every job once.
func stratifiedMedian(byStratum map[int][]float64) float64 {
	if len(byStratum) == 0 {
		return 0
	}
	var sum float64
	for _, xs := range byStratum {
		sum += median(xs)
	}
	return sum / float64(len(byStratum))
}

// trimmedMean is the mean of xs without its ⌊n/10⌋ smallest and ⌊n/10⌋
// largest samples: nearly as efficient as the mean where the samples
// are well behaved — the median of a hundred blocks whose work differs
// by a sixth, as a block's records do, is itself only good to 4% — and
// unmoved by a stall as long as stalls are under a tenth of the samples.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 10
	s = s[k : len(s)-k]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}
