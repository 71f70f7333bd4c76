package traffic

import (
	"math"
	"math/rand"

	"pretium/internal/graph"
	"pretium/internal/stats"
)

// GenConfig parameterizes the synthetic traffic-matrix generator.
type GenConfig struct {
	// Steps is the number of timesteps to generate.
	Steps int
	// StepsPerDay sets the diurnal period (e.g. 24 for hourly steps).
	StepsPerDay int
	// BaseDemand is the mean per-(src,dst)-pair demand per timestep
	// before diurnal modulation.
	BaseDemand float64
	// PairActiveFraction is the fraction of (src,dst) pairs that carry
	// traffic at all; inter-DC WANs have sparse matrices.
	PairActiveFraction float64
	// DiurnalAmplitude in [0,1) is the day/night swing of *user-driven*
	// pairs; bulk-replication pairs swing at SteadyAmplitude.
	DiurnalAmplitude float64
	// UserDrivenFraction is the fraction of pairs with the full diurnal
	// swing; the rest are steady bulk transfers. This bimodality is what
	// yields Figure 1's shape (most links flat, a heavy swingy tail).
	UserDrivenFraction float64
	// SteadyAmplitude is the residual swing of bulk pairs.
	SteadyAmplitude float64
	// NoiseStd is the relative std of multiplicative lognormal-ish noise.
	NoiseStd float64
	// FlashProb is the per-pair per-step probability of a flash crowd.
	FlashProb float64
	// FlashMagnitude multiplies demand during a flash crowd.
	FlashMagnitude float64
	// HeterogeneityStd is the per-pair lognormal scale spread; this is
	// what produces Figure 1's wide 90th/10th utilization ratios.
	HeterogeneityStd float64
	// Seed drives all randomness.
	Seed int64
}

// DefaultGenConfig returns the generator settings used by the evaluation:
// hourly steps, strong diurnal swing, heavy per-pair heterogeneity.
func DefaultGenConfig(steps int) GenConfig {
	return GenConfig{
		Steps:              steps,
		StepsPerDay:        24,
		BaseDemand:         8,
		PairActiveFraction: 0.3,
		DiurnalAmplitude:   0.85,
		UserDrivenFraction: 0.35,
		SteadyAmplitude:    0.12,
		NoiseStd:           0.2,
		FlashProb:          0.01,
		FlashMagnitude:     6,
		HeterogeneityStd:   1.3,
		Seed:               7,
	}
}

// Generate produces a traffic-matrix time-series over the network's nodes.
func Generate(n *graph.Network, cfg GenConfig) Series {
	r := rand.New(rand.NewSource(cfg.Seed))
	nn := n.NumNodes()
	// Diurnal phase is geographically coherent: all traffic sourced in a
	// region swings together (time zones), with small per-pair jitter.
	// Without this coherence, per-pair phases cancel when aggregated onto
	// links and the Figure 1 heterogeneity disappears.
	regionPhase := make(map[string]float64)
	for _, region := range n.Regions() {
		regionPhase[region] = r.Float64() * 2 * math.Pi
	}
	// Per-pair static structure: active flag, scale, diurnal phase.
	type pairParams struct {
		active bool
		scale  float64
		phase  float64
		amp    float64
	}
	params := make([][]pairParams, nn)
	for i := range params {
		params[i] = make([]pairParams, nn)
		for j := range params[i] {
			if i == j {
				continue
			}
			p := &params[i][j]
			p.active = r.Float64() < cfg.PairActiveFraction
			// Lognormal scale spread drives link heterogeneity.
			p.scale = math.Exp(r.NormFloat64() * cfg.HeterogeneityStd)
			p.phase = regionPhase[n.Node(graph.NodeID(i)).Region] + r.NormFloat64()*0.3
			p.amp = cfg.SteadyAmplitude
			if r.Float64() < cfg.UserDrivenFraction {
				p.amp = cfg.DiurnalAmplitude
			}
		}
	}
	day := float64(cfg.StepsPerDay)
	if day <= 0 {
		day = 24
	}
	series := make(Series, cfg.Steps)
	for t := 0; t < cfg.Steps; t++ {
		m := NewMatrix(nn)
		for i := 0; i < nn; i++ {
			for j := 0; j < nn; j++ {
				p := params[i][j]
				if !p.active {
					continue
				}
				diurnal := 1 + p.amp*math.Sin(2*math.Pi*float64(t)/day+p.phase)
				noise := math.Exp(r.NormFloat64()*cfg.NoiseStd - cfg.NoiseStd*cfg.NoiseStd/2)
				v := cfg.BaseDemand * p.scale * diurnal * noise
				if r.Float64() < cfg.FlashProb {
					v *= cfg.FlashMagnitude
				}
				if v < 0 {
					v = 0
				}
				m.Demand[i][j] = v
			}
		}
		series[t] = m
	}
	return series
}

// RequestConfig controls how requests are synthesized from a traffic
// matrix time-series (§6.1: "Based on operator survey about typical
// request parameters (size, average request duration, deadline, etc.), we
// generated requests that closely mimic the observed traffic matrix
// time-series, while using different distributions for individual values
// and deadlines").
type RequestConfig struct {
	// MeanSize is the mean request demand; each matrix entry is carved
	// into roughly Demand/MeanSize requests.
	MeanSize float64
	// ValueDist draws v_i (value per byte).
	ValueDist stats.Dist
	// SlackDist draws the deadline slack in timesteps beyond the
	// minimum-duration transfer; deadline = start + 1 + slack.
	SlackDist stats.Dist
	// MaxSlack caps slack so deadlines stay inside the horizon.
	MaxSlack int
	// RoutesPerRequest is k for the k-shortest admissible route set.
	RoutesPerRequest int
	// RateFraction is the fraction of requests issued as rate requests.
	RateFraction float64
	// ArrivalLead is the maximum number of timesteps before Start at
	// which a request is announced (arrival drawn uniformly).
	ArrivalLead int
	// AggregateSteps accumulates each pair's volume over this many
	// consecutive timesteps before carving requests (1 = per step).
	// Real transfers span minutes to hours, not one matrix sample; this
	// also controls the request count at a given traffic volume.
	AggregateSteps int
	// Seed drives all randomness.
	Seed int64
}

// DefaultRequestConfig returns the request-synthesis settings used by the
// evaluation: normal values with sigma < mu, geometric-ish slack.
func DefaultRequestConfig() RequestConfig {
	return RequestConfig{
		MeanSize:         12,
		ValueDist:        stats.Normal{Mu: 4, Sigma: 1.5, Floor: 0.05},
		SlackDist:        stats.Exponential{MeanVal: 4},
		MaxSlack:         12,
		RoutesPerRequest: 3,
		RateFraction:     0,
		ArrivalLead:      2,
		AggregateSteps:   1,
		Seed:             11,
	}
}

// Synthesize converts the series into a request stream sorted by arrival.
// Route sets come from k-shortest paths; requests whose endpoints are
// disconnected are dropped (none are, on the built-in topologies).
func Synthesize(n *graph.Network, s Series, cfg RequestConfig) []*Request {
	r := rand.New(rand.NewSource(cfg.Seed))
	var reqs []*Request
	id := 0
	horizon := len(s)
	agg := cfg.AggregateSteps
	if agg < 1 {
		agg = 1
	}
	for t := 0; t < horizon; t += agg {
		nn := len(s[t].Demand)
		for src := 0; src < nn; src++ {
			for dst := 0; dst < nn; dst++ {
				if src == dst {
					continue
				}
				vol := 0.0
				for dt := 0; dt < agg && t+dt < horizon; dt++ {
					vol += s[t+dt].Demand[src][dst]
				}
				if vol <= 0 {
					continue
				}
				// One shared route set per pair: the network memoizes it.
				routes := n.KShortestPaths(graph.NodeID(src), graph.NodeID(dst), cfg.RoutesPerRequest)
				if len(routes) == 0 {
					continue
				}
				// Carve the volume into requests around MeanSize.
				remaining := vol
				for remaining > 1e-9 {
					size := cfg.MeanSize * (0.5 + r.Float64())
					if size > remaining {
						size = remaining
					}
					remaining -= size
					slack := int(cfg.SlackDist.Sample(r))
					if slack < 0 {
						slack = 0
					}
					if slack > cfg.MaxSlack {
						slack = cfg.MaxSlack
					}
					end := t + agg + slack
					if end >= horizon {
						end = horizon - 1
					}
					if end < t {
						end = t
					}
					lead := 0
					if cfg.ArrivalLead > 0 {
						lead = r.Intn(cfg.ArrivalLead + 1)
					}
					arrival := t - lead
					if arrival < 0 {
						arrival = 0
					}
					req := &Request{
						ID:      id,
						Src:     graph.NodeID(src),
						Dst:     graph.NodeID(dst),
						Routes:  routes,
						Arrival: arrival,
						Start:   t,
						End:     end,
						Demand:  size,
						Value:   cfg.ValueDist.Sample(r),
						Kind:    ByteRequest,
					}
					if cfg.RateFraction > 0 && r.Float64() < cfg.RateFraction && req.Window() > 0 {
						req.Kind = RateRequest
						req.Rate = size / float64(req.Window())
					}
					reqs = append(reqs, req)
					id++
				}
			}
		}
	}
	sortByArrival(reqs)
	return reqs
}

// sortByArrival orders requests by (arrival, id) — a stable, deterministic
// replay order for the online simulation.
func sortByArrival(reqs []*Request) {
	// Insertion-friendly: the stream is nearly sorted already.
	for i := 1; i < len(reqs); i++ {
		for j := i; j > 0; j-- {
			a, b := reqs[j-1], reqs[j]
			if a.Arrival < b.Arrival || (a.Arrival == b.Arrival && a.ID < b.ID) {
				break
			}
			reqs[j-1], reqs[j] = reqs[j], reqs[j-1]
		}
	}
}
