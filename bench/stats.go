package main

import (
	"math"
	"slices"
)

// percentile returns the exact nearest-rank p-th percentile (0 < p <=
// 100) of an ascending slice: the smallest element with at least p %
// of the samples at or below it. No interpolation, no buckets.
func percentile[T uint32 | float64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func mean[T uint32 | float64](v []T) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return s / float64(len(v))
}

// median returns the middle of v (mean of the two middles when even).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the
// default "exclusive" method), which is what the acceptance rule for
// this benchmark is written in. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	ld := len(s)
	q := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := i*(ld+1) - j*4 // after clamping j, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spreadPct is (max-min)/median in percent.
func spreadPct(v []float64) float64 {
	m := median(v)
	if m == 0 || len(v) == 0 {
		return 0
	}
	return (slices.Max(v) - slices.Min(v)) / m * 100
}
