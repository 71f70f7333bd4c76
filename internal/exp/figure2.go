package exp

import (
	"fmt"
	"math"

	"pretium/internal/graph"
	"pretium/internal/lp"
	"pretium/internal/pricing"
	"pretium/internal/traffic"
)

// figure2Instance is the paper's exact worked example: four nodes, three
// links of capacity 2 per timestep, two timesteps, four requests.
type figure2Instance struct {
	net    *graph.Network
	ids    map[string]graph.NodeID
	ab     graph.EdgeID // A->B
	ac     graph.EdgeID // A->C
	cd     graph.EdgeID // C->D
	reqs   []*traffic.Request
	values []float64
}

func newFigure2() *figure2Instance {
	net, ids := graph.FourNodeExample()
	f := &figure2Instance{net: net, ids: ids}
	f.ab = net.Out(ids["A"])[0]
	f.ac = net.Out(ids["A"])[1]
	f.cd = net.Out(ids["C"])[0]
	mk := func(id int, src, dst string, v, d float64, end int) *traffic.Request {
		return &traffic.Request{
			ID: id, Src: ids[src], Dst: ids[dst],
			Routes:  net.KShortestPaths(ids[src], ids[dst], 1),
			Arrival: 0, Start: 0, End: end, Demand: d, Value: v,
		}
	}
	// R1: A->B v=8 d=2 deadline t0; R2: A->B v=4 d=2 deadline t1;
	// R3: A->D v=4 d=2 deadline t0; R4: C->D v=1 d=4 deadline t1.
	f.reqs = []*traffic.Request{
		mk(0, "A", "B", 8, 2, 0),
		mk(1, "A", "B", 4, 2, 1),
		mk(2, "A", "D", 4, 2, 0),
		mk(3, "C", "D", 1, 4, 1),
	}
	f.values = []float64{8, 4, 4, 1}
	return f
}

// edgesOf returns the (single) route's edges for request i.
func (f *figure2Instance) edgesOf(i int) graph.Path { return f.reqs[i].Routes[0] }

// scheduleLP builds the example's scheduling LP over the admitted
// requests with per-request per-step eligibility, objective weights
// w[i] per unit, and returns units per request.
func (f *figure2Instance) scheduleLP(eligible func(i, t int) bool, w []float64, extra func(m *lp.Model, x [][2]lp.Var)) ([]float64, float64) {
	m := lp.NewModel()
	m.SetMaximize(true)
	var x [][2]lp.Var
	for i := range f.reqs {
		var vars [2]lp.Var
		for t := 0; t <= 1; t++ {
			if t <= f.reqs[i].End && eligible(i, t) {
				vars[t] = m.AddVar(0, f.reqs[i].Demand, w[i])
			} else {
				vars[t] = m.AddVar(0, 0, 0)
			}
		}
		x = append(x, vars)
		m.AddConstraint(lp.LE, f.reqs[i].Demand, lp.Term{Var: vars[0], Coef: 1}, lp.Term{Var: vars[1], Coef: 1})
	}
	// Capacity 2 per link per step.
	for t := 0; t <= 1; t++ {
		for _, e := range []graph.EdgeID{f.ab, f.ac, f.cd} {
			var terms []lp.Term
			for i := range f.reqs {
				for _, pe := range f.edgesOf(i) {
					if pe == e {
						terms = append(terms, lp.Term{Var: x[i][t], Coef: 1})
					}
				}
			}
			if len(terms) > 0 {
				m.AddConstraint(lp.LE, 2, terms...)
			}
		}
	}
	if extra != nil {
		extra(m, x)
	}
	sol, err := m.Solve(lp.Options{})
	if err != nil || sol.Status != lp.Optimal {
		return make([]float64, len(f.reqs)), 0
	}
	units := make([]float64, len(f.reqs))
	welfare := 0.0
	for i := range f.reqs {
		units[i] = sol.X[x[i][0]] + sol.X[x[i][1]]
		welfare += f.values[i] * units[i]
	}
	return units, welfare
}

// Figure2 reproduces the paper's worked example (welfare column of the
// Figure 2 table). It reports, per pricing scheme, the units scheduled
// for each request and the resulting welfare; Pretium's per-(link,time)
// prices reach the optimum of 34.
func Figure2() []Row {
	f := newFigure2()
	all := func(int, int) bool { return true }
	row := func(name string, units []float64, welfare float64) Row {
		return Row{Label: name, Columns: []Col{
			{Name: "R1", Value: units[0]},
			{Name: "R2", Value: units[1]},
			{Name: "R3", Value: units[2]},
			{Name: "R4", Value: units[3]},
			{Name: "welfare", Value: welfare},
		}}
	}
	var rows []Row

	// Welfare-optimal benchmark (what Pretium's prices support): 34.
	units, welfare := f.scheduleLP(all, f.values, nil)
	optWelfare := welfare
	rows = append(rows, row("Optimal", units, welfare))

	// NoPrice: maximize throughput; ties broken without seeing values.
	// We report the value-blind scheduler's worst tie-break (a second
	// LP: same max throughput, minimum welfare) — the risk the paper's
	// (1,2,1,3) outcome illustrates.
	ones := []float64{1, 1, 1, 1}
	tputUnits, _ := f.scheduleLP(all, ones, nil)
	tput := 0.0
	for _, u := range tputUnits {
		tput += u
	}
	// The LP objective minimizes true welfare (negated weights) subject
	// to maximum throughput; scheduleLP reports welfare in true values.
	unitsWorst, welfareWorst := f.scheduleLP(all, negate(f.values), func(m *lp.Model, x [][2]lp.Var) {
		var terms []lp.Term
		for i := range x {
			terms = append(terms, lp.Term{Var: x[i][0], Coef: 1}, lp.Term{Var: x[i][1], Coef: 1})
		}
		m.AddConstraint(lp.GE, tput, terms...)
	})
	rows = append(rows, row("NoPrice(worst tie)", unitsWorst, welfareWorst))

	// Fixed-price schemes: prices decide *who* enters (request-level
	// admission); the scheduler is then value-blind, so we report the
	// worst tie-break among its throughput-optimal schedules — the
	// paper's point is exactly that fixed prices cannot steer the
	// scheduler between ties.
	admittedWorstTie := func(in func(i int) bool) ([]float64, float64) {
		elig := func(i, t int) bool { return in(i) }
		uMax, _ := f.scheduleLP(elig, ones, nil)
		tp := 0.0
		for _, u := range uMax {
			tp += u
		}
		return f.scheduleLP(elig, negate(f.values), func(m *lp.Model, x [][2]lp.Var) {
			var terms []lp.Term
			for i := range x {
				terms = append(terms, lp.Term{Var: x[i][0], Coef: 1}, lp.Term{Var: x[i][1], Coef: 1})
			}
			m.AddConstraint(lp.GE, tp, terms...)
		})
	}

	bestFixed, bestFixedW := 0.0, math.Inf(-1)
	var bestFixedUnits []float64
	for _, p := range []float64{1, 2, 4, 8} {
		u, welf := admittedWorstTie(func(i int) bool { return f.values[i] >= p })
		if welf > bestFixedW {
			bestFixedW, bestFixed, bestFixedUnits = welf, p, u
		}
	}
	rows = append(rows, row(fmt.Sprintf("Fixed(p=%.0f)", bestFixed), bestFixedUnits, bestFixedW))

	// Per-link fixed prices: the request pays the sum along its path.
	grid := []float64{0, 1, 2, 4, 8}
	bestLinkW := math.Inf(-1)
	var bestLinkUnits []float64
	for _, pab := range grid {
		for _, pac := range grid {
			for _, pcd := range grid {
				price := func(i int) float64 {
					total := 0.0
					for _, e := range f.edgesOf(i) {
						switch e {
						case f.ab:
							total += pab
						case f.ac:
							total += pac
						case f.cd:
							total += pcd
						}
					}
					return total
				}
				u, welf := admittedWorstTie(func(i int) bool { return f.values[i] >= price(i) })
				if welf > bestLinkW {
					bestLinkW, bestLinkUnits = welf, u
				}
			}
		}
	}
	rows = append(rows, row("PerLink(best)", bestLinkUnits, bestLinkW))

	// Per-time uniform prices: a request is admitted if any step of its
	// window is affordable; scheduling remains value-blind.
	bestTimeW := math.Inf(-1)
	var bestTimeUnits []float64
	for _, p0 := range grid {
		for _, p1 := range grid {
			u, welf := admittedWorstTie(func(i int) bool {
				if f.values[i] >= p0 {
					return true
				}
				return f.reqs[i].End >= 1 && f.values[i] >= p1
			})
			if welf > bestTimeW {
				bestTimeW, bestTimeUnits = welf, u
			}
		}
	}
	rows = append(rows, row("PerTime(best)", bestTimeUnits, bestTimeW))

	// Pretium: the paper's per-(link,time) prices — (A,B): 8 then 4,
	// (C,D): 4 then 1, (A,C): free — driven through the real admission
	// machinery (menus, Theorem 5.2 purchases, reservations).
	st := pricing.NewState(f.net, 2, 0)
	st.Adjust = pricing.AdjustConfig{Threshold: 1, Factor: 1}
	st.SetBasePrice(f.ab, 0, 8)
	st.SetBasePrice(f.ab, 1, 4)
	st.SetBasePrice(f.cd, 0, 4)
	st.SetBasePrice(f.cd, 1, 1)
	st.SetBasePrice(f.ac, 0, 0)
	st.SetBasePrice(f.ac, 1, 0)
	pretUnits := make([]float64, len(f.reqs))
	pretWelfare := 0.0
	ad := pricing.NewAdmitter(st)
	for i, r := range f.reqs {
		adm := ad.Admit(r)
		if adm == nil {
			continue
		}
		pretUnits[i] = adm.Guaranteed
		pretWelfare += f.values[i] * adm.Guaranteed
	}
	rows = append(rows, row("Pretium", pretUnits, pretWelfare))
	rows = append(rows, Row{Label: "check", Columns: []Col{
		{Name: "pretium_equals_optimal", Value: boolTo01(math.Abs(pretWelfare-optWelfare) < 1e-6)},
	}})
	return rows
}

func negate(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = -v
	}
	return out
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
