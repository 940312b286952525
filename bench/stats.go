package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported as supported: a p90 over 40 samples rests on 4 values.
const minTail = 10

// sample is a set of measurements of one quantity, in the unit it was
// recorded in.
type sample []float64

// sorted returns an ascending copy.
func (s sample) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// rank is the 1-based nearest-rank index of percentile p (0 < p <= 100) in
// n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), n)
}

// percentile is the nearest-rank p-th percentile; NaN when empty.
func (s sample) percentile(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s.sorted()[rank(len(s), p)-1]
}

// supports reports whether at least minTail samples lie beyond the p-th
// percentile.
func (s sample) supports(p float64) bool {
	return len(s)-rank(len(s), p) >= minTail
}

func (s sample) median() float64 { return s.percentile(50) }

func (s sample) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	var t float64
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

// describe is the diagnostic line printed for every latency: p50, p90 and
// p99, each marked when fewer than minTail samples support it.
func (s sample) describe() string {
	out := fmt.Sprintf("n=%d", len(s))
	for _, p := range []float64{50, 90, 99} {
		mark := ""
		if !s.supports(p) {
			mark = "(unsupported)"
		}
		out += fmt.Sprintf(" p%g=%.4g%s", p, s.percentile(p), mark)
	}
	return out
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(data, n=4) computes them (the "exclusive" method), so
// spreads printed here match a reader's check in Python. It needs at least
// two values.
func quartiles(xs []float64) (q1, q3 float64) {
	d := sample(xs).sorted()
	ld := len(d)
	if ld < 2 {
		v := math.NaN()
		if ld == 1 {
			v = d[0]
		}
		return v, v
	}
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// midMedian is the median that averages the two middle values of an even
// count, as Python's statistics.median does; spreads between runs use it.
func midMedian(xs []float64) float64 {
	d := sample(xs).sorted()
	n := len(d)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return d[n/2]
	default:
		return (d[n/2-1] + d[n/2]) / 2
	}
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(midMedian(xs))
}
