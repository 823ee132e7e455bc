package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// samples: the value at 1-based rank ceil(p/100 × n) of the sorted
// samples. It sorts samples in place and returns 0 for none.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p / 100 * float64(len(samples))))
	return samples[max(rank, 1)-1]
}

func median(samples []float64) float64 { return percentile(samples, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0: a layer that did no work on this
// workload, or a /metrics family a later commit renamed.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
