package sched

import (
	"math"
	"sort"

	"pretium/internal/lp"
)

// SolveGreedy is the LP-free scheduler behind the bottom rung of the
// control loop's degradation ladder, used when every simplex attempt has
// failed (iteration/time limits, numerically suspect vertices, or an
// injected chaos outage): that rung keeps the installed plan and hands
// SolveGreedy only the transfers an outage strands, with every other plan
// pinned. It consumes the same Instance and emits the same Result/Alloc
// shape as the LP path, always succeeds on a well-formed instance, and is
// capacity-feasible by construction — every byte it places is subtracted
// from a residual per-(edge, step) capacity matrix before the next
// placement is considered.
//
// The policy is guarantee-first earliest-deadline (the RCD insight:
// close to deadlines, guaranteed traffic must preempt everything else),
// then value-ordered best effort:
//
//  1. Demands with MinBytes > 0, in earliest-deadline order, each
//     water-filled up to its remaining guarantee.
//  2. All demands, in descending ValuePerByte order, water-filled up to
//     MaxBytes.
//
// Water-filling within a demand first spreads a flat rate across its
// allowed timesteps — percentile charges bill the window peak, so a flat
// schedule is the cheapest shape a percentile-blind scheduler can aim
// for — then spills what did not fit earliest-first. Within a step it
// drains the cheapest-burden route first and, among equal-burden routes,
// repeatedly sends on the one with the largest bottleneck residual,
// honoring the per-step RateCap across routes.
//
// Cost-awareness: the fallback prices a usage-priced edge pessimistically
// at its full charge rate C_e per byte of peak (it cannot shape
// percentiles, so it assumes a byte lands at the billed peak).
// Best-effort bytes only take routes whose summed burden is covered by
// the demand's value per byte; guarantee bytes ship regardless (they
// were sold, and reneging costs more than carriage), just preferring
// unpriced paths. Without UseCostProxy the burden is zero and pass 2 is
// purely value-ordered.
//
// What the fallback gives up relative to the LP: exact percentile-cost
// shaping, trading one demand's bytes for another's higher value at a
// shared bottleneck, and dual prices. What it preserves: capacity
// feasibility, per-step rate caps, Allowed windows, guarantee delivery
// whenever the EDF order admits it, and never knowingly carrying
// best-effort bytes below cost.
func (ins *Instance) SolveGreedy() (*Result, error) {
	if err := ins.checkShape(); err != nil {
		return nil, err
	}
	ne := ins.Net.NumEdges()

	// Residual schedulable capacity. Capacity is already what scheduled
	// traffic may use, as in the LP's capacity rows: FixedUsage is charged
	// to cost windows, not subtracted again.
	residual := make([][]float64, ne)
	for e := 0; e < ne; e++ {
		residual[e] = make([]float64, ins.Horizon)
		for t := 0; t < ins.Horizon; t++ {
			residual[e][t] = max(ins.Capacity[e][t], 0)
		}
	}

	res := &Result{
		Status:    lp.Optimal,
		Delivered: make([]float64, len(ins.Demands)),
		EdgeUsage: make([][]float64, ne),
		Price:     make([][]float64, ne),
	}
	for e := 0; e < ne; e++ {
		res.EdgeUsage[e] = make([]float64, ins.Horizon)
		res.Price[e] = make([]float64, ins.Horizon)
	}

	// burden[e] is the assumed per-byte cost of a usage-priced edge. The
	// fallback cannot shape percentiles, so it prices pessimistically: a
	// byte is assumed to land at the window peak and pay the full C_e.
	burden := make([]float64, ne)
	if ins.UseCostProxy {
		for _, e := range ins.Net.Edges() {
			if e.UsagePriced {
				burden[e.ID] = e.CostPerUnit
			}
		}
	}

	// rateUsed[d][t] tracks bandwidth consumed across routes for RateCap
	// enforcement; allocated lazily only for capped demands.
	rateUsed := make(map[int][]float64)
	// allocAt[d] aggregates placements per (route, t) so the two passes
	// emit one Alloc per slot.
	allocAt := make([]map[[2]int]float64, len(ins.Demands))

	// placeAt puts up to amt bytes of demand di on step t (honoring the
	// RateCap budget and the burden cap) and returns what fit.
	placeAt := func(di, t int, amt, maxBurden float64) float64 {
		d := &ins.Demands[di]
		budget := math.Inf(1)
		if d.RateCap > 0 {
			ru := rateUsed[di]
			if ru == nil {
				ru = make([]float64, ins.Horizon)
				rateUsed[di] = ru
			}
			budget = d.RateCap - ru[t]
		}
		// Water-fill across routes: drain the cheapest-burden routes
		// first (guarantees must ship, but not over a priced fat pipe
		// while an unpriced path has room), and among equal-burden routes
		// repeatedly take from the widest bottleneck so parallel paths
		// drain evenly.
		placed := 0.0
		for budget > 1e-12 && amt > 1e-12 {
			best, bestRoom, bestCost := -1, 1e-12, math.Inf(1)
			for ri, route := range d.Routes {
				room := math.Inf(1)
				cost := 0.0
				for _, e := range route {
					if r := residual[e][t]; r < room {
						room = r
					}
					cost += burden[e]
				}
				if cost > maxBurden || room <= 1e-12 {
					continue
				}
				if cost < bestCost-1e-12 || (cost <= bestCost+1e-12 && room > bestRoom) {
					best, bestRoom, bestCost = ri, room, cost
				}
			}
			if best < 0 {
				break
			}
			take := math.Min(amt, math.Min(bestRoom, budget))
			for _, e := range d.Routes[best] {
				residual[e][t] -= take
				res.EdgeUsage[e][t] += take
			}
			if allocAt[di] == nil {
				allocAt[di] = make(map[[2]int]float64)
			}
			allocAt[di][[2]int{best, t}] += take
			amt -= take
			placed += take
			budget -= take
			if d.RateCap > 0 {
				rateUsed[di][t] += take
			}
		}
		return placed
	}

	// fill places up to `want` bytes of demand di on routes whose cost
	// burden does not exceed maxBurden, and returns what fit. Two sweeps:
	// first an even rate across the demand's allowed steps — percentile
	// charges bill the window peak, so a flat schedule is the cheapest
	// shape a percentile-blind scheduler can aim for — then an
	// earliest-first spill for whatever the flat target could not fit.
	fill := func(di int, want, maxBurden float64) float64 {
		if want <= 1e-12 {
			return 0
		}
		d := &ins.Demands[di]
		lo, hi := ins.clip(d)
		if hi < lo {
			return 0
		}
		allowed := d.allowedMask(ins.Horizon)
		steps := make([]int, 0, hi-lo+1)
		for t := lo; t <= hi; t++ {
			if allowed == nil || allowed[t] {
				steps = append(steps, t)
			}
		}
		placed := 0.0
		if len(steps) > 1 {
			target := want / float64(len(steps))
			for _, t := range steps {
				if want-placed <= 1e-12 {
					break
				}
				placed += placeAt(di, t, math.Min(target, want-placed), maxBurden)
			}
		}
		for _, t := range steps {
			if want-placed <= 1e-12 {
				break
			}
			placed += placeAt(di, t, want-placed, maxBurden)
		}
		res.Delivered[di] += placed
		return placed
	}

	// Pass 1: guarantees, earliest deadline first (ties: earlier start,
	// then instance order, keeping the schedule deterministic).
	order := make([]int, 0, len(ins.Demands))
	for di := range ins.Demands {
		if ins.Demands[di].MinBytes > 1e-9 {
			order = append(order, di)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		da, db := &ins.Demands[order[a]], &ins.Demands[order[b]]
		if da.End != db.End {
			return da.End < db.End
		}
		return da.Start < db.Start
	})
	for _, di := range order {
		d := &ins.Demands[di]
		want := math.Min(d.MinBytes, d.MaxBytes)
		fill(di, want, math.Inf(1))
	}

	// Pass 2: remaining purchased bytes, highest value per byte first
	// (ties: earlier deadline, then instance order).
	order = order[:0]
	for di := range ins.Demands {
		order = append(order, di)
	}
	sort.SliceStable(order, func(a, b int) bool {
		da, db := &ins.Demands[order[a]], &ins.Demands[order[b]]
		if da.ValuePerByte != db.ValuePerByte {
			return da.ValuePerByte > db.ValuePerByte
		}
		return da.End < db.End
	})
	for _, di := range order {
		d := &ins.Demands[di]
		fill(di, d.MaxBytes-res.Delivered[di], d.ValuePerByte)
	}

	// Emit allocations in deterministic (demand, route, time) order and
	// score the schedule by its proxy value (no cost term: the fallback
	// does not model the percentile proxy).
	for di := range ins.Demands {
		byKey := allocAt[di]
		if len(byKey) == 0 {
			continue
		}
		keys := make([][2]int, 0, len(byKey))
		for k := range byKey {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool {
			if keys[a][0] != keys[b][0] {
				return keys[a][0] < keys[b][0]
			}
			return keys[a][1] < keys[b][1]
		})
		for _, k := range keys {
			if bytes := byKey[k]; bytes > 1e-9 {
				res.Allocs = append(res.Allocs, Alloc{DemandIdx: di, RouteIdx: k[0], Time: k[1], Bytes: bytes})
			}
		}
		res.Objective += ins.Demands[di].ValuePerByte * res.Delivered[di]
	}
	return res, nil
}
