// Package baselines implements the five comparison schemes of the paper's
// evaluation (§6.1): the offline optimum (OPT), offline scheduling without
// prices (NoPrices), the region-based and time-of-day fixed-price oracles
// (RegionOracle, PeakOracle), and the VCG-like spot market (VCGLike).
//
// The oracles are deliberately *oracular*: they search their price space
// with full hindsight knowledge of request values, making them upper
// bounds on any practical fixed-price scheme — which is exactly why
// beating them is meaningful for Pretium.
package baselines

import (
	"fmt"
	"math"
	"sort"

	"pretium/internal/cost"
	"pretium/internal/graph"
	"pretium/internal/lp"
	"pretium/internal/sched"
	"pretium/internal/sim"
	"pretium/internal/traffic"
)

// Config carries the common experiment parameters.
type Config struct {
	Horizon int
	Cost    cost.Config
}

// capacityMatrix materializes static edge capacities over the horizon.
func capacityMatrix(n *graph.Network, horizon int) [][]float64 {
	m := make([][]float64, n.NumEdges())
	for _, e := range n.Edges() {
		m[e.ID] = make([]float64, horizon)
		for t := range m[e.ID] {
			m[e.ID][t] = e.Capacity
		}
	}
	return m
}

// solveOffline runs one offline scheduling LP for the given demands and
// converts the result into an Outcome (payments left zero for the caller).
// warm optionally seeds the solve from a previous cell's basis — the
// oracle grid searches re-solve near-identical LPs (adjacent price points
// often admit the same request subset), so chaining bases through the grid
// skips most of phase 1; mismatched bases are ignored by the solver.
func solveOffline(n *graph.Network, reqs []*traffic.Request, demands []sched.Demand, cfg Config, warm *lp.Basis) (*sim.Outcome, *sched.Result, error) {
	ins := &sched.Instance{
		Net:          n,
		Horizon:      cfg.Horizon,
		Capacity:     capacityMatrix(n, cfg.Horizon),
		Demands:      demands,
		Cost:         cfg.Cost,
		UseCostProxy: true,
	}
	res, err := ins.Solve(lp.Options{WarmBasis: warm})
	if err != nil {
		return nil, nil, err
	}
	if res.Status != lp.Optimal {
		return nil, nil, fmt.Errorf("baselines: offline LP %v", res.Status)
	}
	out := sim.NewOutcome(len(reqs), n, cfg.Horizon)
	for i, delivered := range res.Delivered {
		out.Delivered[demands[i].ID] = delivered
	}
	for e := range res.EdgeUsage {
		copy(out.Usage[e], res.EdgeUsage[e])
	}
	return out, res, nil
}

// OPT is the offline optimal benchmark: full future knowledge, true
// values, percentile costs via the top-k proxy (the best tractable offline
// bound, as the paper defines it).
func OPT(n *graph.Network, reqs []*traffic.Request, cfg Config) (*sim.Outcome, error) {
	demands := make([]sched.Demand, len(reqs))
	for i, r := range reqs {
		demands[i] = sched.Demand{
			ID: i, Routes: r.Routes, Start: r.Start, End: r.End,
			MaxBytes: r.Demand, ValuePerByte: r.Value,
		}
	}
	out, _, err := solveOffline(n, reqs, demands, cfg, nil)
	return out, err
}

// NoPrices mimics a value-blind offline TE scheme: every request enters
// (no admission control), and the scheduler maximizes bytes transferred
// minus costs, as if every byte were worth 1.
func NoPrices(n *graph.Network, reqs []*traffic.Request, cfg Config) (*sim.Outcome, error) {
	demands := make([]sched.Demand, len(reqs))
	for i, r := range reqs {
		demands[i] = sched.Demand{
			ID: i, Routes: r.Routes, Start: r.Start, End: r.End,
			MaxBytes: r.Demand, ValuePerByte: 1,
		}
	}
	out, _, err := solveOffline(n, reqs, demands, cfg, nil)
	return out, err
}

// priceGrid returns candidate per-byte prices drawn from the quantiles of
// the request values (plus a just-below-minimum entry so "admit all" is
// always in the search space).
func priceGrid(reqs []*traffic.Request, levels int) []float64 {
	if len(reqs) == 0 {
		return []float64{0}
	}
	vals := make([]float64, len(reqs))
	for i, r := range reqs {
		vals[i] = r.Value
	}
	sort.Float64s(vals)
	grid := []float64{vals[0] * 0.5}
	for i := 1; i <= levels; i++ {
		q := float64(i) / float64(levels)
		idx := int(q*float64(len(vals)-1) + 0.5)
		grid = append(grid, vals[idx])
	}
	out := grid[:0]
	seen := map[float64]bool{}
	for _, p := range grid {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// RegionOracle is the two-tier geographic pricing oracle: one price per
// byte within a region, a (typically higher) price across regions, both
// chosen in hindsight to maximize welfare. Admitted requests (v_i >= p)
// are scheduled to maximize bytes minus percentile costs and pay p per
// delivered byte.
func RegionOracle(n *graph.Network, reqs []*traffic.Request, cfg Config, gridLevels int) (*sim.Outcome, error) {
	grid := priceGrid(reqs, gridLevels)
	var best *sim.Outcome
	bestWelfare := math.Inf(-1)
	var warm *lp.Basis // chained across grid cells
	for _, pIntra := range grid {
		for _, pInter := range grid {
			out, basis, err := runFlatPriced(n, reqs, cfg, warm, func(r *traffic.Request) float64 {
				if n.SameRegion(r.Src, r.Dst) {
					return pIntra
				}
				return pInter
			})
			if err != nil {
				return nil, err
			}
			if basis != nil {
				warm = basis
			}
			rep, err := sim.Evaluate(n, reqs, out, cfg.Cost)
			if err != nil {
				return nil, err
			}
			if rep.Welfare > bestWelfare {
				bestWelfare, best = rep.Welfare, out
			}
		}
	}
	return best, nil
}

// runFlatPriced admits requests whose value covers their flat per-byte
// price, schedules them for maximum throughput minus costs, and charges
// the price on delivered bytes. It warm-starts from warm when possible and
// returns the solve's terminal basis for the caller's next cell.
func runFlatPriced(n *graph.Network, reqs []*traffic.Request, cfg Config, warm *lp.Basis, priceOf func(*traffic.Request) float64) (*sim.Outcome, *lp.Basis, error) {
	var demands []sched.Demand
	for i, r := range reqs {
		if r.Value < priceOf(r) {
			continue
		}
		demands = append(demands, sched.Demand{
			ID: i, Routes: r.Routes, Start: r.Start, End: r.End,
			MaxBytes: r.Demand, ValuePerByte: 1,
		})
	}
	if len(demands) == 0 {
		return sim.NewOutcome(len(reqs), n, cfg.Horizon), nil, nil
	}
	out, res, err := solveOffline(n, reqs, demands, cfg, warm)
	if err != nil {
		return nil, nil, err
	}
	for i, r := range reqs {
		if out.Delivered[i] > 0 {
			out.Payments[i] = out.Delivered[i] * priceOf(r)
		}
	}
	return out, res.Basis, nil
}

// PeakPeriod computes the static peak interval from a traffic series: the
// set of timesteps (mod StepsPerDay) whose aggregate demand exceeds the
// daily mean, as the paper selects it from the traces.
func PeakPeriod(series traffic.Series, stepsPerDay int) []bool {
	if stepsPerDay <= 0 {
		stepsPerDay = 24
	}
	sums := make([]float64, stepsPerDay)
	counts := make([]int, stepsPerDay)
	total := 0.0
	for t, m := range series {
		v := m.Total()
		sums[t%stepsPerDay] += v
		counts[t%stepsPerDay]++
		total += v
	}
	mean := total / float64(len(series))
	peak := make([]bool, stepsPerDay)
	for h := range sums {
		if counts[h] > 0 && sums[h]/float64(counts[h]) > mean {
			peak[h] = true
		}
	}
	return peak
}

// PeakOracle is the time-of-day pricing oracle: a peak and an off-peak
// per-byte price chosen in hindsight. A request may only send at steps
// whose price is within its value, pays the step's price per byte, and
// the scheduler maximizes bytes minus costs under those eligibility
// constraints.
func PeakOracle(n *graph.Network, reqs []*traffic.Request, cfg Config, peak []bool, gridLevels int) (*sim.Outcome, error) {
	grid := priceGrid(reqs, gridLevels)
	stepsPerDay := len(peak)
	if stepsPerDay == 0 {
		return nil, fmt.Errorf("baselines: empty peak period")
	}
	priceAt := func(pPeak, pOff float64, t int) float64 {
		if peak[t%stepsPerDay] {
			return pPeak
		}
		return pOff
	}
	var best *sim.Outcome
	bestWelfare := math.Inf(-1)
	var warm *lp.Basis // chained across grid cells
	for _, pOff := range grid {
		for _, pPeak := range grid {
			if pPeak < pOff {
				continue // peak price below off-peak is never intended
			}
			var demands []sched.Demand
			for i, r := range reqs {
				var allowed []int
				for t := r.Start; t <= r.End && t < cfg.Horizon; t++ {
					if priceAt(pPeak, pOff, t) <= r.Value {
						allowed = append(allowed, t)
					}
				}
				if len(allowed) == 0 {
					continue
				}
				demands = append(demands, sched.Demand{
					ID: i, Routes: r.Routes, Start: r.Start, End: r.End,
					MaxBytes: r.Demand, ValuePerByte: 1, Allowed: allowed,
				})
			}
			out := sim.NewOutcome(len(reqs), n, cfg.Horizon)
			if len(demands) > 0 {
				o, res, err := solveOffline(n, reqs, demands, cfg, warm)
				if err != nil {
					return nil, err
				}
				if res.Basis != nil {
					warm = res.Basis
				}
				out = o
				for _, al := range res.Allocs {
					reqIdx := demands[al.DemandIdx].ID
					out.Payments[reqIdx] += al.Bytes * priceAt(pPeak, pOff, al.Time)
				}
			}
			rep, err := sim.Evaluate(n, reqs, out, cfg.Cost)
			if err != nil {
				return nil, err
			}
			if rep.Welfare > bestWelfare {
				bestWelfare, best = rep.Welfare, out
			}
		}
	}
	return best, nil
}

// VCGLike is the myopic spot market: each timestep, all unfinished byte
// requests are converted to rate requests (remaining demand spread to the
// deadline), allocated to maximize declared welfare at that step alone
// (costs ignored, as the paper specifies), and charged VCG payments. It
// plans one step at a time, which is exactly its weakness.
func VCGLike(n *graph.Network, reqs []*traffic.Request, cfg Config) (*sim.Outcome, error) {
	out := sim.NewOutcome(len(reqs), n, cfg.Horizon)
	remaining := make([]float64, len(reqs))
	for i, r := range reqs {
		remaining[i] = r.Demand
	}
	for t := 0; t < cfg.Horizon; t++ {
		type bidder struct {
			reqIdx int
			rate   float64
		}
		var bidders []bidder
		var demands []sched.Demand
		for i, r := range reqs {
			if r.Arrival > t || t < r.Start || t > r.End || remaining[i] <= 1e-9 {
				continue
			}
			rate := remaining[i] / float64(r.End-t+1)
			bidders = append(bidders, bidder{reqIdx: i, rate: rate})
			demands = append(demands, sched.Demand{
				ID: i, Routes: r.Routes, Start: t, End: t,
				MaxBytes: rate, ValuePerByte: r.Value,
			})
		}
		if len(demands) == 0 {
			continue
		}
		var stepBasis *lp.Basis // chained across the per-bidder marginal solves
		solveStep := func(ds []sched.Demand) (*sched.Result, error) {
			ins := &sched.Instance{
				Net: n, Horizon: t + 1, StartStep: t,
				Capacity: capacityMatrix(n, t+1),
				Demands:  ds, Cost: cfg.Cost, UseCostProxy: false,
			}
			res, err := ins.Solve(lp.Options{WarmBasis: stepBasis})
			if err != nil {
				return nil, err
			}
			if res.Status != lp.Optimal {
				return nil, fmt.Errorf("baselines: VCG step LP %v at t=%d", res.Status, t)
			}
			if res.Basis != nil {
				stepBasis = res.Basis
			}
			return res, nil
		}
		res, err := solveStep(demands)
		if err != nil {
			return nil, err
		}
		// Declared welfare of others in the full allocation, per bidder.
		othersWith := make([]float64, len(demands))
		for di := range demands {
			for dj := range demands {
				if dj != di {
					othersWith[di] += res.Delivered[dj] * demands[dj].ValuePerByte
				}
			}
		}
		// Apply allocations.
		for di, d := range demands {
			got := res.Delivered[di]
			if got <= 1e-9 {
				continue
			}
			remaining[d.ID] -= got
			out.Delivered[d.ID] += got
		}
		for _, al := range res.Allocs {
			d := demands[al.DemandIdx]
			for _, e := range d.Routes[al.RouteIdx] {
				out.Usage[e][t] += al.Bytes
			}
		}
		// VCG payments: welfare of others without i minus with i.
		for di, d := range demands {
			if res.Delivered[di] <= 1e-9 {
				continue
			}
			without := make([]sched.Demand, 0, len(demands)-1)
			for dj, dd := range demands {
				if dj != di {
					without = append(without, dd)
				}
			}
			pay := 0.0
			if len(without) > 0 {
				resW, err := solveStep(without)
				if err != nil {
					return nil, err
				}
				othersAlone := 0.0
				for dj := range without {
					othersAlone += resW.Delivered[dj] * without[dj].ValuePerByte
				}
				pay = othersAlone - othersWith[di]
				if pay < 0 {
					pay = 0
				}
			}
			out.Payments[d.ID] += pay
		}
	}
	return out, nil
}
