package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 15, 40, 20, 35}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample is not NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median is the nearest-rank p50 (a sample): got %v, want 2", got)
	}
	if got := midpoint([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("midpoint = %v, want 2.5", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 1.2, 5.5, 2.2, 4.8}, [3]float64{1.7, 3.1, 5.15}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if !ok || math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported ok")
	}
}
