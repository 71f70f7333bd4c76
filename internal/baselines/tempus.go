package baselines

import (
	"fmt"
	"sort"

	"pretium/internal/graph"
	"pretium/internal/lp"
	"pretium/internal/sim"
	"pretium/internal/traffic"
)

// OnlineTE is a Tempus-like online deadline-TE scheme (Kandula et al.,
// SIGCOMM 2014), the practical no-price baseline the paper mentions and
// dismisses ("practical online versions of this scheme … would obviously
// perform worse"). Every timestep it re-solves a two-stage LP over all
// active transfers and the remaining horizon:
//
//  1. maximize the minimum promised completion fraction α across
//     transfers (max-min fairness on fractions, Tempus's objective);
//  2. holding α, maximize total future bytes.
//
// It is value-blind, price-free, and cost-blind; the welfare accounting
// (exact percentile charges) then shows what that costs.
func OnlineTE(n *graph.Network, reqs []*traffic.Request, cfg Config) (*sim.Outcome, error) {
	out := sim.NewOutcome(len(reqs), n, cfg.Horizon)
	delivered := make([]float64, len(reqs))

	// Terminal bases chained across timesteps for each stage; they only
	// pay off when consecutive steps build structurally identical LPs
	// (stable active set and horizon), and are ignored by the solver
	// otherwise.
	var stage1Basis, stage2Basis *lp.Basis
	for t := 0; t < cfg.Horizon; t++ {
		// Active requests: arrived, not expired, not finished.
		type active struct {
			reqIdx int
			req    *traffic.Request
		}
		var acts []active
		maxEnd := t
		for i, r := range reqs {
			if r.Arrival > t || r.End < t || delivered[i] >= r.Demand-1e-9 {
				continue
			}
			acts = append(acts, active{reqIdx: i, req: r})
			if r.End > maxEnd {
				maxEnd = r.End
			}
		}
		if len(acts) == 0 {
			continue
		}
		horizon := maxEnd + 1
		if horizon > cfg.Horizon {
			horizon = cfg.Horizon
		}

		m := lp.NewModel()
		m.SetMaximize(true)
		alpha := m.AddVar(0, 1, 1)
		type flowVar struct {
			v        lp.Var
			a, r, tt int
		}
		var flows []flowVar
		edgeTerms := make(map[graph.EdgeID]map[int][]lp.Term)
		var sumAll []lp.Term
		for ai, ac := range acts {
			var terms []lp.Term
			for ri, route := range ac.req.Routes {
				for tt := t; tt <= ac.req.End && tt < horizon; tt++ {
					v := m.AddVar(0, lp.Inf, 0)
					flows = append(flows, flowVar{v: v, a: ai, r: ri, tt: tt})
					terms = append(terms, lp.Term{Var: v, Coef: 1})
					sumAll = append(sumAll, lp.Term{Var: v, Coef: 1})
					for _, e := range route {
						byT := edgeTerms[e]
						if byT == nil {
							byT = make(map[int][]lp.Term)
							edgeTerms[e] = byT
						}
						byT[tt] = append(byT[tt], lp.Term{Var: v, Coef: 1})
					}
				}
			}
			// Completion-fraction link: alpha*d - Σ X <= delivered.
			rows := append([]lp.Term{{Var: alpha, Coef: ac.req.Demand}}, negTerms(terms)...)
			m.AddConstraint(lp.LE, delivered[ac.reqIdx], rows...)
			// Demand cap.
			m.AddConstraint(lp.LE, ac.req.Demand-delivered[ac.reqIdx], terms...)
		}
		// Deterministic row order: with degenerate optima the solution
		// vertex depends on constraint order, so never build rows in map
		// iteration order.
		eids := make([]int, 0, len(edgeTerms))
		for e := range edgeTerms {
			eids = append(eids, int(e))
		}
		sort.Ints(eids)
		for _, ei := range eids {
			byT := edgeTerms[graph.EdgeID(ei)]
			ts := make([]int, 0, len(byT))
			for tt := range byT {
				ts = append(ts, tt)
			}
			sort.Ints(ts)
			for _, tt := range ts {
				m.AddConstraint(lp.LE, n.Edge(graph.EdgeID(ei)).Capacity, byT[tt]...)
			}
		}
		sol, err := m.Solve(lp.Options{WarmBasis: stage1Basis})
		if err != nil {
			return nil, err
		}
		if sol.Status != lp.Optimal {
			return nil, fmt.Errorf("baselines: OnlineTE stage-1 LP %v at t=%d", sol.Status, t)
		}
		stage1Basis = sol.Basis()
		alphaStar := sol.X[alpha]

		// Stage 2: fix alpha, maximize total bytes.
		m.SetObj(alpha, 0)
		m.AddConstraint(lp.GE, alphaStar-1e-9, lp.Term{Var: alpha, Coef: 1})
		for _, f := range flows {
			m.SetObj(f.v, 1)
		}
		sol, err = m.Solve(lp.Options{WarmBasis: stage2Basis})
		if err != nil {
			return nil, err
		}
		if sol.Status != lp.Optimal {
			return nil, fmt.Errorf("baselines: OnlineTE stage-2 LP %v at t=%d", sol.Status, t)
		}
		stage2Basis = sol.Basis()

		// Realize only step-t allocations; everything later re-plans.
		for _, f := range flows {
			if f.tt != t {
				continue
			}
			b := sol.X[f.v]
			if b <= 1e-9 {
				continue
			}
			ac := acts[f.a]
			delivered[ac.reqIdx] += b
			out.Delivered[ac.reqIdx] += b
			out.Events = append(out.Events, sim.DeliveryEvent{Req: ac.reqIdx, Time: t, Bytes: b})
			for _, e := range ac.req.Routes[f.r] {
				out.Usage[e][t] += b
			}
		}
	}
	return out, nil
}

func negTerms(ts []lp.Term) []lp.Term {
	out := make([]lp.Term, len(ts))
	for i, t := range ts {
		out[i] = lp.Term{Var: t.Var, Coef: -t.Coef}
	}
	return out
}
