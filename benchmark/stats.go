package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// v, 0 for an empty sample.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// median averages the two middle values of an even sample, so that a
// median of few repetitions does not jump between neighbours.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 { return ratio(sum(v), float64(len(v))) }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when the base is 0 (a segment that did not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
