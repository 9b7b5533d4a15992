package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles are the percentiles a tail is reported at, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of tailPercentiles that
// has at least ten of the n samples beyond it, its value, and n. With
// fewer than twenty samples no percentile qualifies and ok is false.
func tailPercentile(xs []float64) (pct, value float64, n int, ok bool) {
	n = len(xs)
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p, quantile(xs, p/100), n, true
		}
	}
	return 0, 0, n, false
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
