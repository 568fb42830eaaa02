package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank percentile of a sorted sample: the
// smallest value with at least p of the sample at or below it.  No
// interpolation, so every reported latency is one that was measured.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the middle value, or the mean of the two middle values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// harness that judges this benchmark computes.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// iqrFrac is the interquartile range as a share of the median.
func iqrFrac(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// sortedIn converts nanosecond samples to a sorted slice in the unit of
// `per` nanoseconds.
func sortedIn(ns []int64, per float64) []float64 {
	out := make([]float64, len(ns))
	for i, d := range ns {
		out[i] = float64(d) / per
	}
	sort.Float64s(out)
	return out
}

const (
	perUS = 1e3
	perMS = 1e6
	perS  = 1e9
)
