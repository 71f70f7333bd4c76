package pricing

import (
	"fmt"

	"pretium/internal/cost"
	"pretium/internal/graph"
	"pretium/internal/lp"
	"pretium/internal/sched"
)

// ComputerConfig parameterizes the Price Computer (§4.3).
type ComputerConfig struct {
	// WindowLen is W, the number of timesteps per pricing window (the
	// paper recommends recomputing daily).
	WindowLen int
	// Cost is the percentile-charging rule used in the offline LP.
	Cost cost.Config
	// MinPrice floors the published prices; dual prices of uncongested
	// free links are legitimately zero, but a tiny floor keeps the
	// admission tie-breaking well-behaved.
	MinPrice float64
	// CostFloorFrac floors a usage-priced edge's price at this fraction
	// of its amortized percentile charge: C_e over the charging window,
	// Cost.Window(periodLen) — core.New's break-even rate. The LP duals of
	// a percentile-cost optimum are degenerate — the cost gradient can
	// concentrate on one arbitrary peak step, leaving the rest priced at
	// zero — and selling "free" off-peak bytes on a link whose bill is
	// set by its peak invites exactly the peak-shifting the charge
	// punishes. The amortized floor is the break-even price under flat
	// load. Zero disables the floor.
	CostFloorFrac float64
	// Solver bounds the LP solve.
	Solver lp.Options
}

// HistoryEntry is one observed request for the price computer: what the
// customer bought at which marginal price (the λ_i value proxy — the
// computer never sees true values, §4.3 "Value estimation").
type HistoryEntry struct {
	Routes     []graph.Path
	Start, End int // absolute steps within the history axis
	Bytes      float64
	Lambda     float64
}

// ComputePrices solves the offline welfare LP over a history period of
// `periodLen` timesteps and returns the dual link prices restricted to the
// reference window [refStart, refStart+WindowLen). capacity is indexed on
// the same axis as the history entries.
//
// The self-correcting property the paper describes falls out of the
// duals: a link that was underpriced attracts requests, shows up
// congested in the history, and its capacity dual — hence its new price —
// rises; an overpriced link sheds load and its dual falls.
func ComputePrices(net *graph.Network, history []HistoryEntry, capacity [][]float64,
	periodLen, refStart int, cfg ComputerConfig) ([][]float64, error) {
	if cfg.WindowLen <= 0 {
		return nil, fmt.Errorf("pricing: WindowLen must be positive")
	}
	if refStart < 0 || refStart+cfg.WindowLen > periodLen {
		return nil, fmt.Errorf("pricing: reference window [%d,%d) outside period [0,%d)",
			refStart, refStart+cfg.WindowLen, periodLen)
	}
	demands := make([]sched.Demand, 0, len(history))
	for i, h := range history {
		if h.Bytes <= 0 {
			continue
		}
		demands = append(demands, sched.Demand{
			ID:           i,
			Routes:       h.Routes,
			Start:        h.Start,
			End:          h.End,
			MaxBytes:     h.Bytes,
			ValuePerByte: h.Lambda,
		})
	}
	ins := &sched.Instance{
		Net:          net,
		Horizon:      periodLen,
		StartStep:    0,
		Capacity:     capacity,
		Demands:      demands,
		Cost:         cfg.Cost,
		UseCostProxy: true,
		WantPrices:   true,
	}
	res, err := ins.Solve(cfg.Solver)
	if err != nil {
		return nil, err
	}
	if res.Status != lp.Optimal {
		return nil, fmt.Errorf("pricing: offline LP %v", res.Status)
	}
	if res.Suspect {
		// Duals from a numerically suspect solve would silently poison the
		// whole next pricing window; better to keep the old prices.
		return nil, fmt.Errorf("pricing: offline LP %w", lp.ErrSuspect)
	}
	window := make([][]float64, net.NumEdges())
	for e := range window {
		floor := cfg.MinPrice
		if edge := net.Edge(graph.EdgeID(e)); edge.UsagePriced && cfg.CostFloorFrac > 0 {
			if f := cfg.CostFloorFrac * edge.CostPerUnit / float64(cfg.Cost.Window(periodLen)); f > floor {
				floor = f
			}
		}
		window[e] = make([]float64, cfg.WindowLen)
		for i := 0; i < cfg.WindowLen; i++ {
			p := res.Price[e][refStart+i]
			if p < floor {
				p = floor
			}
			window[e][i] = p
		}
	}
	return window, nil
}
