package main

import "testing"

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// TestTailPercentile checks that the reported tail is the highest
// percentile with at least ten samples beyond it, with the sample count.
func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, tc := range cases {
		p, v, n, ok := tailPercentile(ramp(tc.n))
		if p != tc.want || ok != tc.ok || n != tc.n {
			t.Errorf("n=%d: got p%g ok=%v n=%d, want p%g ok=%v", tc.n, p, ok, n, tc.want, tc.ok)
			continue
		}
		if ok {
			if beyond := countAbove(ramp(tc.n), v); beyond < 10 {
				t.Errorf("n=%d: p%g=%g has only %d samples beyond it", tc.n, p, v, beyond)
			}
		}
	}
}

func countAbove(xs []float64, v float64) int {
	c := 0
	for _, x := range xs {
		if x > v {
			c++
		}
	}
	return c
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %g, want 4", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %g, want 0", got)
	}
}
