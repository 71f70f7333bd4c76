// Package sim defines the common currency of the evaluation: the Outcome
// of running any scheme (Pretium or a baseline) over a request stream, and
// the Report of metrics the paper plots — social welfare (Eq. 1), provider
// profit, request completion, and link-utilization statistics.
//
// Welfare is always accounted with the *exact* non-convex 95th-percentile
// cost (§3.1), no matter which proxy the scheme optimized internally, so
// numbers are comparable across schemes.
package sim

import (
	"fmt"

	"pretium/internal/cost"
	"pretium/internal/graph"
	"pretium/internal/stats"
	"pretium/internal/traffic"
)

// Outcome is what a scheme did with a request stream.
type Outcome struct {
	// Delivered[i] is the number of bytes of request i delivered within
	// its [Start, End] window.
	Delivered []float64
	// Payments[i] is what customer i paid (0 for unpriced schemes).
	Payments []float64
	// Usage[e][t] is the realized load per edge per timestep.
	Usage [][]float64
	// Reneged[i] is the guaranteed-but-undelivered bytes of request i
	// (only meaningful for schemes that promise guarantees).
	Reneged []float64
	// Refunded[i] is the currency explicitly returned to request i for
	// guarantees bought back under topology churn (preemption with
	// refund). Payments[i] is already net of it: a preempted customer
	// pays the pro-rata price of delivered bytes and is made whole for
	// the rest — refunded shortfall is not a renege.
	Refunded []float64
	// Events logs when bytes were delivered; the incentives experiment
	// (§5) uses it to value a deviator's transfer against their *true*
	// deadline rather than the reported one.
	Events []DeliveryEvent
}

// DeliveryEvent is one delivery: Bytes of request Req at step Time.
type DeliveryEvent struct {
	Req   int
	Time  int
	Bytes float64
}

// DeliveredBy returns the bytes of request i delivered at or before step t.
func (o *Outcome) DeliveredBy(i, t int) float64 {
	total := 0.0
	for _, ev := range o.Events {
		if ev.Req == i && ev.Time <= t {
			total += ev.Bytes
		}
	}
	return total
}

// NewOutcome allocates an outcome sized for the given problem.
func NewOutcome(numRequests int, net *graph.Network, horizon int) *Outcome {
	o := &Outcome{
		Delivered: make([]float64, numRequests),
		Payments:  make([]float64, numRequests),
		Reneged:   make([]float64, numRequests),
		Refunded:  make([]float64, numRequests),
		Usage:     make([][]float64, net.NumEdges()),
	}
	for e := range o.Usage {
		o.Usage[e] = make([]float64, horizon)
	}
	return o
}

// Report is the metric set the paper's figures are drawn from.
type Report struct {
	// Value is Σ_i v_i * delivered_i.
	Value float64
	// Cost is the exact 95th-percentile operating cost of the usage.
	Cost float64
	// Welfare = Value - Cost (social welfare, Eq. 1).
	Welfare float64
	// Revenue is Σ payments; Profit = Revenue - Cost.
	Revenue float64
	Profit  float64
	// Completed counts requests with >= 99.9% of demand delivered;
	// CompletionFrac is Completed / total.
	Completed      int
	CompletionFrac float64
	// RenegedBytes totals guarantee violations across requests.
	RenegedBytes float64
	// RefundedTotal is the currency returned for guarantees bought back
	// under churn (already subtracted from Revenue).
	RefundedTotal float64
}

// Evaluate computes the Report for an outcome.
func Evaluate(net *graph.Network, reqs []*traffic.Request, o *Outcome, costCfg cost.Config) (Report, error) {
	if len(o.Delivered) != len(reqs) {
		return Report{}, fmt.Errorf("sim: outcome covers %d requests, stream has %d", len(o.Delivered), len(reqs))
	}
	if err := costCfg.Validate(); err != nil {
		return Report{}, fmt.Errorf("sim: %w", err)
	}
	var r Report
	for i, req := range reqs {
		r.Value += req.Value * o.Delivered[i]
		r.Revenue += o.Payments[i]
		if req.Demand > 0 && o.Delivered[i] >= 0.999*req.Demand {
			r.Completed++
		}
		if o.Reneged != nil {
			r.RenegedBytes += o.Reneged[i]
		}
		if o.Refunded != nil {
			r.RefundedTotal += o.Refunded[i]
		}
	}
	if len(reqs) > 0 {
		r.CompletionFrac = float64(r.Completed) / float64(len(reqs))
	}
	r.Cost = cost.ExactScheduleCost(net, o.Usage, costCfg)
	r.Welfare = r.Value - r.Cost
	r.Profit = r.Revenue - r.Cost
	return r, nil
}

// Utilization90thCDF returns the CDF of per-link 90th-percentile
// utilization (as a fraction of capacity), the statistic of Figure 10.
func Utilization90thCDF(net *graph.Network, usage [][]float64) *stats.CDF {
	var vals []float64
	for _, e := range net.Edges() {
		if e.Capacity <= 0 {
			continue
		}
		p90, err := stats.Percentile(usage[e.ID], 90)
		if err != nil {
			continue
		}
		vals = append(vals, p90/e.Capacity)
	}
	return stats.NewCDF(vals)
}

// CheckCapacities verifies no link exceeds capacity at any timestep
// (within tol); schemes are tested against this invariant.
func CheckCapacities(net *graph.Network, usage [][]float64, tol float64) error {
	for _, e := range net.Edges() {
		for t, u := range usage[e.ID] {
			if u > e.Capacity+tol {
				return fmt.Errorf("sim: edge %d over capacity at t=%d: %v > %v", e.ID, t, u, e.Capacity)
			}
		}
	}
	return nil
}

// CheckCapacitiesAgainst verifies usage respects an explicit
// per-(edge, step) capacity matrix — the surviving capacity under
// injected topology churn, rather than the nameplate link capacity.
func CheckCapacitiesAgainst(usage, capacity [][]float64, tol float64) error {
	if len(usage) != len(capacity) {
		return fmt.Errorf("sim: usage covers %d edges, capacity %d", len(usage), len(capacity))
	}
	for e := range usage {
		for t, u := range usage[e] {
			if t >= len(capacity[e]) {
				break
			}
			if u > capacity[e][t]+tol {
				return fmt.Errorf("sim: edge %d over surviving capacity at t=%d: %v > %v", e, t, u, capacity[e][t])
			}
		}
	}
	return nil
}
