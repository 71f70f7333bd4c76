package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice by
// linear interpolation between order statistics. It returns 0 for an
// empty slice so that a workload that produced no samples of some
// operation reports a visible zero, not NaN.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// tailPercentiles are the percentiles a timing may be summarised by, in
// ascending order. Which one is used depends on the sample count alone.
var tailPercentiles = []float64{75, 90, 99, 99.9}

// tailPercentile returns the highest percentile, no higher than limit,
// that leaves at least ten samples beyond it — the highest one whose
// value does not hang on a handful of outliers. With fewer than forty
// samples none qualifies and the median itself is returned.
func tailPercentile(n int, limit float64) float64 {
	best := 50.0
	for _, p := range tailPercentiles {
		// The small allowance is for 100-99.9 not being 0.1 in binary.
		if p <= limit && float64(n)*(100-p) >= 1000*(1-1e-9) {
			best = p
		}
	}
	return best
}

// summary is a timing reduced the way every metric here reports one: the
// median, one tail percentile chosen by tailPercentile, and the count.
type summary struct {
	P50, Tail float64
	TailPct   float64
	N         int
}

// summarize sorts xs in place and reduces it.
func summarize(xs []float64, limit float64) summary {
	sort.Float64s(xs)
	p := tailPercentile(len(xs), limit)
	return summary{P50: quantile(xs, 0.5), Tail: quantile(xs, p/100), TailPct: p, N: len(xs)}
}

func sum(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}

// median sorts xs in place and returns its median.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so that spreads printed here can be compared digit for digit with
// those of a harness written in Python. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n < 2 {
		if n == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}
