// Package cost implements Pretium's link-cost model (§4.2 of the paper).
//
// Usage-priced WAN links are charged on the 95th percentile of their
// per-timestep utilization over a charging window. That makes welfare
// maximization non-convex and NP-hard (Theorem 4.1), so the paper
// substitutes z_e — the mean utilization over the top 10% of timesteps —
// which is linearly correlated with the 95th percentile (Figure 5) and can
// be bounded with O(kT) sorting-network linear constraints (Theorem 4.2).
// This package provides the exact (non-convex) cost evaluator used for
// *accounting*, the z_e proxy used by the *optimizers*, and the constraint
// emitter that encodes the proxy into an LP.
package cost

import (
	"fmt"

	"pretium/internal/graph"
	"pretium/internal/stats"
)

// Config describes the charging rule.
type Config struct {
	// Percentile is the charged usage percentile (the paper and industry
	// practice use 95).
	Percentile float64
	// TopFrac is the fraction of timesteps averaged by the z_e proxy
	// (the paper uses the top 10%).
	TopFrac float64
	// WindowLen is the number of timesteps per charging window (the paper
	// uses 24 hours); zero or negative means one window over the horizon.
	WindowLen int
}

// Window returns the charging-window length over T steps (WindowLen's rule).
func (c Config) Window(T int) int {
	if c.WindowLen <= 0 {
		return T
	}
	return c.WindowLen
}

// Validate rejects a percentile outside [0,100] (NaN too) before it bills 0.
func (c Config) Validate() error {
	if !(c.Percentile >= 0 && c.Percentile <= 100) {
		return fmt.Errorf("cost: Percentile %v outside [0,100]", c.Percentile)
	}
	return nil
}

// DefaultConfig returns the paper's charging rule: 95th percentile over a
// window, proxied by the mean of the top 10% of timesteps.
func DefaultConfig(windowLen int) Config {
	return Config{Percentile: 95, TopFrac: 0.10, WindowLen: windowLen}
}

// K returns the top-k count for a window of T timesteps: max(1,
// round(TopFrac*T)).
func (c Config) K(T int) int {
	k := int(c.TopFrac*float64(T) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > T {
		k = T
	}
	return k
}

// ExactWindowCost charges edge e for one window of usage: C_e times the
// exact 95th-percentile usage. This is the non-convex ground truth used
// when reporting welfare, regardless of which proxy the optimizer used.
func ExactWindowCost(e graph.Edge, usage []float64, cfg Config) float64 {
	if !e.UsagePriced || len(usage) == 0 {
		return 0
	}
	p, err := stats.Percentile(usage, cfg.Percentile)
	if err != nil {
		return 0
	}
	return e.CostPerUnit * p
}

// ProxyWindowCost charges edge e using the z_e proxy: C_e times the mean
// of the top-k usages.
func ProxyWindowCost(e graph.Edge, usage []float64, cfg Config) float64 {
	if !e.UsagePriced || len(usage) == 0 {
		return 0
	}
	k := cfg.K(len(usage))
	z, err := stats.TopKMean(usage, k)
	if err != nil {
		return 0
	}
	return e.CostPerUnit * z
}

// ExactScheduleCost sums ExactWindowCost over all edges for a usage
// matrix indexed usage[edge][t], splitting [0,T) into charging windows of
// cfg.Window(T) (a trailing partial window is charged too).
func ExactScheduleCost(n *graph.Network, usage [][]float64, cfg Config) float64 {
	total := 0.0
	for _, e := range n.Edges() {
		if !e.UsagePriced {
			continue
		}
		series := usage[e.ID]
		w := cfg.Window(len(series))
		for start := 0; start < len(series); start += w {
			end := start + w
			if end > len(series) {
				end = len(series)
			}
			total += ExactWindowCost(e, series[start:end], cfg)
		}
	}
	return total
}
