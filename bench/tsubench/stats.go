package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule: the smallest value with at least q·n values at or
// below it. Nearest rank never interpolates, so the tail it reports is
// a latency some op really had, and n − rank values lie beyond it.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(n) - 1e-9)) // 0.95·400 must be 380, not 381
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// warmup is the number of leading ops of a client excluded from every
// metric: 5 %, at least one.
func warmup(ops int) int {
	w := ops / 20
	if w < 1 {
		w = 1
	}
	return w
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}
