package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1},
		{100, 10},
		{50, 5.5},
		{25, 3.25},
		{95, 9.55},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", c.p, err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("expected error for empty slice")
	}
	if _, err := Percentile([]float64{1}, -1); err == nil {
		t.Error("expected error for p < 0")
	}
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Error("expected error for p > 100")
	}
	if _, err := Percentile([]float64{1, 2}, math.NaN()); err == nil {
		t.Error("expected error for NaN p")
	}
}

func TestPercentileSingleValue(t *testing.T) {
	got, err := Percentile([]float64{42}, 95)
	if err != nil || got != 42 {
		t.Errorf("Percentile single = %v, %v; want 42, nil", got, err)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestTopKMean(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7}
	got, err := TopKMean(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := 8.0; got != want {
		t.Errorf("TopKMean = %v, want %v", got, want)
	}
	if _, err := TopKMean(xs, 0); err == nil {
		t.Error("expected error for k=0")
	}
	if _, err := TopKMean(xs, 6); err == nil {
		t.Error("expected error for k > len")
	}
}

// Property: TopKMean is monotone nondecreasing in k removal — i.e. the
// top-k mean is always >= the overall mean, and >= the top-(k+1) mean.
func TestTopKMeanMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e6))
			}
		}
		if len(xs) < 2 {
			return true
		}
		prev := math.Inf(1)
		for k := 1; k <= len(xs); k++ {
			m, err := TopKMean(xs, k)
			if err != nil {
				return false
			}
			if m > prev+1e-9 {
				return false
			}
			prev = m
		}
		full, _ := TopKMean(xs, len(xs))
		return math.Abs(full-Mean(xs)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v", got)
	}
	if got := c.At(2); got != 0.75 {
		t.Errorf("At(2) = %v, want 0.75", got)
	}
	if got := c.At(10); got != 1 {
		t.Errorf("At(10) = %v, want 1", got)
	}
	if got := c.Quantile(0.5); math.Abs(got-2) > 1e-9 {
		t.Errorf("Quantile(0.5) = %v, want 2", got)
	}
}

func TestCDFQuantileClamps(t *testing.T) {
	c := NewCDF([]float64{1, 5})
	if got := c.Quantile(-1); got != 1 {
		t.Errorf("Quantile(-1) = %v, want 1", got)
	}
	if got := c.Quantile(2); got != 5 {
		t.Errorf("Quantile(2) = %v, want 5", got)
	}
}

// Property: CDF.At is a valid CDF — monotone in x and within [0,1].
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, probes []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		c := NewCDF(xs)
		ps := make([]float64, 0, len(probes))
		for _, p := range probes {
			if !math.IsNaN(p) {
				ps = append(ps, p)
			}
		}
		sort.Float64s(ps)
		prev := -1.0
		for _, p := range ps {
			y := c.At(p)
			if y < 0 || y > 1 || y < prev {
				return false
			}
			prev = y
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.Add(1, 2.0)  // bin 0
	h.Add(9, 1.5)  // bin 4
	h.Add(-5, 1.0) // clamps to bin 0
	h.Add(15, 1.0) // clamps to bin 4
	if h.Counts[0] != 2 || h.Counts[4] != 2 {
		t.Errorf("counts = %v", h.Counts)
	}
	if h.Sums[0] != 3.0 || h.Sums[4] != 2.5 {
		t.Errorf("sums = %v", h.Sums)
	}
	if got := h.BinCenter(0); got != 1 {
		t.Errorf("BinCenter(0) = %v, want 1", got)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := NewHistogram(5, 5, 0) // invalid inputs normalized
	h.Add(5, 1)
	if h.Counts[0] != 1 {
		t.Errorf("degenerate histogram should still accept values")
	}
}

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if Mean(nil) != 0 {
		t.Error("empty-slice mean should be 0")
	}
}

func TestLinearRegressionExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 1 + 2x
	lr, err := LinearRegression(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lr.Slope-2) > 1e-9 || math.Abs(lr.Intercept-1) > 1e-9 {
		t.Errorf("fit = %+v, want slope 2 intercept 1", lr)
	}
	if math.Abs(lr.R2-1) > 1e-9 {
		t.Errorf("R2 = %v, want 1", lr.R2)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	if _, err := LinearRegression([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := LinearRegression([]float64{1}, []float64{1}); err == nil {
		t.Error("expected too-few-points error")
	}
	if _, err := LinearRegression([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("expected constant-x error")
	}
}

func TestDistributions(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	dists := []Dist{
		Normal{Mu: 10, Sigma: 2, Floor: 0},
		Pareto{Xm: 1, Alpha: 3},
		Exponential{MeanVal: 4},
	}
	for _, d := range dists {
		var sum float64
		n := 20000
		for i := 0; i < n; i++ {
			v := d.Sample(r)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s produced non-finite sample", d)
			}
			sum += v
		}
		mean := sum / float64(n)
		want := d.Mean()
		if math.Abs(mean-want)/want > 0.1 {
			t.Errorf("%s: sample mean %v too far from %v", d, mean, want)
		}
		if d.String() == "" {
			t.Errorf("%T has empty String()", d)
		}
	}
}

func TestNormalTruncation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	d := Normal{Mu: 1, Sigma: 5, Floor: 0.5}
	for i := 0; i < 1000; i++ {
		if v := d.Sample(r); v < 0.5 {
			t.Fatalf("sample %v below floor", v)
		}
	}
}

func TestParetoWithMeanStd(t *testing.T) {
	for _, c := range []struct{ mean, std float64 }{{10, 2}, {10, 5}, {10, 10}, {4, 1}} {
		p := ParetoWithMeanStd(c.mean, c.std)
		if math.Abs(p.Mean()-c.mean)/c.mean > 1e-9 {
			t.Errorf("ParetoWithMeanStd(%v,%v) mean = %v", c.mean, c.std, p.Mean())
		}
		// Verify the std via the analytic formula.
		a, x := p.Alpha, p.Xm
		variance := x * x * a / ((a - 1) * (a - 1) * (a - 2))
		if math.Abs(math.Sqrt(variance)-c.std)/c.std > 1e-6 {
			t.Errorf("ParetoWithMeanStd(%v,%v) std = %v", c.mean, c.std, math.Sqrt(variance))
		}
	}
}

func TestParetoSampleAboveXm(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	p := Pareto{Xm: 2, Alpha: 2.5}
	for i := 0; i < 1000; i++ {
		if v := p.Sample(r); v < p.Xm {
			t.Fatalf("pareto sample %v below xm", v)
		}
	}
}

// Property: Percentile(xs, p) lies within [min, max] of the sample.
func TestPercentileBoundsProperty(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p = math.Mod(math.Abs(p), 100)
		got, err := Percentile(xs, p)
		if err != nil {
			return false
		}
		lo, hi := xs[0], xs[0]
		for _, v := range xs {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
