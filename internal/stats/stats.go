// Package stats provides the small statistical toolkit Pretium's
// experiments rely on: percentiles, empirical CDFs, histograms, online
// moments, simple linear regression, and seeded random distributions.
//
// Everything here is deterministic given its inputs (and, for the random
// distributions, a seed), which keeps every experiment in this repository
// reproducible bit-for-bit.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between closest ranks, the same convention used by the
// paper's 95th-percentile link charges. It returns an error when xs is
// empty or p is out of range (NaN included).
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("stats: percentile of empty slice")
	}
	if !(p >= 0 && p <= 100) {
		return 0, errors.New("stats: percentile out of [0,100]")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p), nil
}

// percentileSorted computes the percentile of an already-sorted slice.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// TopKMean returns the mean of the k largest values of xs. This is the
// z_e proxy from §4.2 of the paper: the utilization averaged over the
// top-10% most-utilized timesteps of a window. It returns an error if
// k <= 0 or k > len(xs).
func TopKMean(xs []float64, k int) (float64, error) {
	if k <= 0 {
		return 0, errors.New("stats: TopKMean requires k > 0")
	}
	if k > len(xs) {
		return 0, errors.New("stats: TopKMean k exceeds sample count")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted[len(sorted)-k:] {
		sum += v
	}
	return sum / float64(k), nil
}

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample xs (which it copies).
func NewCDF(xs []float64) *CDF {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}
}

// At returns the fraction of samples <= x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// sort.SearchFloat64s returns the first index with sorted[i] >= x; we
	// want the count of values <= x, so search for the first value > x.
	n := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(n) / float64(len(c.sorted))
}

// Quantile returns the q-quantile (q in [0,1]) of the sample.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return percentileSorted(c.sorted, q*100)
}

// Histogram buckets values into fixed-width bins over [min, max).
type Histogram struct {
	Min, Max float64
	Counts   []int
	Sums     []float64 // sum of weights per bin (for weighted histograms)
	width    float64
}

// NewHistogram creates a histogram with n bins spanning [min, max).
func NewHistogram(min, max float64, n int) *Histogram {
	if n <= 0 {
		n = 1
	}
	if max <= min {
		max = min + 1
	}
	return &Histogram{
		Min:    min,
		Max:    max,
		Counts: make([]int, n),
		Sums:   make([]float64, n),
		width:  (max - min) / float64(n),
	}
}

// Add records value x with weight w. Out-of-range values clamp to the
// first/last bin, which matches how the paper's per-value-bucket figures
// (7b, 7c) treat extreme request values.
func (h *Histogram) Add(x, w float64) {
	i := int((x - h.Min) / h.width)
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
	h.Sums[i] += w
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Min + (float64(i)+0.5)*h.width
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// LinReg holds the result of an ordinary-least-squares fit y = a + b*x.
type LinReg struct {
	Intercept float64 // a
	Slope     float64 // b
	R2        float64 // coefficient of determination
}

// LinearRegression fits y = a + b*x by least squares. It is used to
// reproduce Figure 5's claim that the top-10% mean (z_e) is linearly
// correlated with the 95th-percentile usage (y_e). It returns an error
// when fewer than two points are given or x is constant.
func LinearRegression(x, y []float64) (LinReg, error) {
	if len(x) != len(y) {
		return LinReg{}, errors.New("stats: regression input length mismatch")
	}
	if len(x) < 2 {
		return LinReg{}, errors.New("stats: regression needs >= 2 points")
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinReg{}, errors.New("stats: regression with constant x")
	}
	b := sxy / sxx
	a := my - b*mx
	r2 := 1.0
	if syy > 0 {
		r2 = (sxy * sxy) / (sxx * syy)
	}
	return LinReg{Intercept: a, Slope: b, R2: r2}, nil
}
