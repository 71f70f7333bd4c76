package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// Dist is a one-dimensional distribution from which experiment inputs
// (request values, sizes, deadlines, traffic noise) are drawn. All
// distributions draw from an externally supplied *rand.Rand so an entire
// experiment shares one seed.
type Dist interface {
	// Sample draws one value.
	Sample(r *rand.Rand) float64
	// Mean returns the distribution mean (used to report μ/σ ratios in
	// the Figure 13/14 sweeps).
	Mean() float64
	// String describes the distribution for experiment logs.
	String() string
}

// Normal is a Gaussian distribution truncated below at Floor (the paper
// draws request values "from a normal distribution with standard
// deviation smaller than the mean"; values must stay positive).
type Normal struct {
	Mu, Sigma float64
	Floor     float64
}

// Sample draws a truncated normal value.
func (n Normal) Sample(r *rand.Rand) float64 {
	for i := 0; i < 64; i++ {
		v := n.Mu + n.Sigma*r.NormFloat64()
		if v >= n.Floor {
			return v
		}
	}
	return n.Floor
}

// Mean returns μ (ignoring the truncation bias, which is small when σ < μ).
func (n Normal) Mean() float64 { return n.Mu }

func (n Normal) String() string {
	return fmt.Sprintf("normal(mu=%.3g, sigma=%.3g)", n.Mu, n.Sigma)
}

// Pareto is a Pareto distribution with scale Xm > 0 and shape Alpha > 1.
type Pareto struct {
	Xm, Alpha float64
}

// Sample draws a Pareto value by inverse-transform sampling.
func (p Pareto) Sample(r *rand.Rand) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return p.Xm / math.Pow(u, 1/p.Alpha)
}

// Mean returns α·x_m/(α−1) for α > 1 and +Inf otherwise.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

func (p Pareto) String() string {
	return fmt.Sprintf("pareto(xm=%.3g, alpha=%.3g)", p.Xm, p.Alpha)
}

// ParetoWithMeanStd returns a Pareto distribution matching the requested
// mean and standard deviation (requires std < mean·√?? — concretely it
// solves α from the coefficient of variation; cv must be < 1/√(α-2)
// feasible range, i.e. any cv > 0 works for α > 2 only when cv < ∞).
// It backs the μ/σ sweeps of Figures 13–14.
func ParetoWithMeanStd(mean, std float64) Pareto {
	// For Pareto: mean = αx/(α−1), var = x²α/((α−1)²(α−2)), so
	// cv² = 1/(α(α−2)) ⇒ α = 1 + sqrt(1 + 1/cv²)  (taking the root > 2).
	cv := std / mean
	alpha := 1 + math.Sqrt(1+1/(cv*cv))
	xm := mean * (alpha - 1) / alpha
	return Pareto{Xm: xm, Alpha: alpha}
}

// Exponential is an exponential distribution with the given Mean.
type Exponential struct {
	MeanVal float64
}

// Sample draws an exponential value.
func (e Exponential) Sample(r *rand.Rand) float64 {
	return r.ExpFloat64() * e.MeanVal
}

// Mean returns the configured mean.
func (e Exponential) Mean() float64 { return e.MeanVal }

func (e Exponential) String() string {
	return fmt.Sprintf("exponential(mean=%.3g)", e.MeanVal)
}
