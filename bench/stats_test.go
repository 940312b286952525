package main

import (
	"math"
	"testing"
)

func TestNearestRankPercentiles(t *testing.T) {
	s := sample{15, 20, 35, 40, 50}
	for _, c := range []struct {
		p    float64
		want float64
	}{{5, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50}} {
		if got := s.percentile(c.p); got != c.want {
			t.Errorf("p%g = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(sample(nil).percentile(50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	s := make(sample, 100)
	for i := range s {
		s[i] = float64(i)
	}
	// rank(100, 90) = 90, so 10 samples lie beyond p90; p91 has 9.
	if !s.supports(90) || s.supports(91) {
		t.Errorf("100 samples: supports(90)=%v supports(91)=%v, want true false", s.supports(90), s.supports(91))
	}
	if s[:40].supports(90) {
		t.Error("p90 of 40 samples has 4 beyond it and must not be supported")
	}
	if !s[:40].supports(50) {
		t.Error("p50 of 40 samples has 20 beyond it")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %v, %v; want 1, 3", q1, q3)
	}
	if m := midMedian(xs); m != 5.5 {
		t.Errorf("midMedian(1..10) = %v, want 5.5", m)
	}
	if got, want := spread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
