package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile for it to count: a p99 over 200 samples rests on two values
// and says nothing about the tail.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// values and how many samples lie beyond it. values need not be sorted.
func percentile(values []float64, p float64) (v float64, beyond int) {
	if len(values) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// median returns the middle value (mean of the middle two for even n).
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile with the "exclusive"
// method of Python's statistics.quantiles(n=4), so spreads computed here
// match the ones an external harness computes from the same values. With
// fewer than two values both quartiles are the single value.
func quartiles(values []float64) (q1, q3 float64) {
	n := len(values)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msAll converts durations to float milliseconds.
func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
