package core

import (
	"math"
	"sort"
	"testing"

	"pretium/internal/chaos"
	"pretium/internal/cost"
	"pretium/internal/graph"
	"pretium/internal/lp"
	"pretium/internal/pricing"
	"pretium/internal/sched"
	"pretium/internal/sim"
	"pretium/internal/stats"
	"pretium/internal/traffic"
)

// wideWAN is a controller input whose SAM instances cross lp.LargeModelRows
// on their own within a few steps and stay cheap to solve: regions of four
// nodes and many small two-route requests with long windows, so that most
// rows are per-transfer demand and guarantee rows and per-(edge, step)
// capacity rows rather than sorting networks. More regions add edges and
// pairs; a smaller meanSize adds transfers on the same capacity.
func wideWAN(regions int, meanSize float64) (*graph.Network, []*traffic.Request, Config) {
	const steps, window = 16, 12
	wc := graph.DefaultWANConfig()
	wc.Regions, wc.NodesPerRegion = regions, 4
	wc.MeanUsageCost = 10
	wc.UnpricedInterFactor = 0.35
	wc.IntraCapacity = 40
	net := graph.GenerateWAN(wc)

	gc := traffic.DefaultGenConfig(steps)
	gc.StepsPerDay = window
	gc.BaseDemand = 6
	dist := stats.Normal{Mu: 0.35, Sigma: 0.15, Floor: 0.02}
	rc := traffic.DefaultRequestConfig()
	rc.MeanSize = meanSize
	rc.ValueDist = dist
	rc.RoutesPerRequest = 2
	rc.MaxSlack = 16
	rc.AggregateSteps = 1
	reqs := traffic.Synthesize(net, traffic.Generate(net, gc), rc)

	cfg := DefaultConfig(steps)
	cfg.Cost = cost.DefaultConfig(window)
	cfg.PriceWindow = window
	cfg.InitialPrice = 0.4 * dist.Mean()
	cfg.MinPrice = 0.02 * dist.Mean()
	return net, reqs, cfg
}

// samWatch is a chaos.Injector that lets every solve proceed and calls
// onSolve at each SAM-site solve, before the model is built — in runSAM,
// right after the instance was posed.
type samWatch struct {
	inner   chaos.Injector // optional: real churn to pass through
	onSolve func(t int)
}

func (w *samWatch) SolveAction(module string, t int) chaos.Action {
	if module == chaos.ModuleSAM {
		w.onSolve(t)
	}
	return chaos.Proceed
}

func (w *samWatch) BeforeStep(t int, st *pricing.State) {
	if w.inner != nil {
		w.inner.BeforeStep(t, st)
	}
}

// explicitSAM is Eq. 2 for ins written against lp.Model here, without sched:
// every demand cap and guarantee a row, no implicit
// bounds, no presolve. It returns the optimum and a function scoring a
// forward plan under the same objective (the percentile proxy z is tight at
// any optimum, so a plan's cost term is the top-k sum itself).
func explicitSAM(t *testing.T, ins *sched.Instance) (optimum float64, score func(states []*admState) float64) {
	t.Helper()
	m := lp.NewModel()
	m.SetMaximize(true)
	type cell struct{ e, t int }
	flows := make(map[cell][]lp.Term)
	for _, d := range ins.Demands {
		var all []lp.Term
		for tt := max(d.Start, ins.StartStep); tt <= min(d.End, ins.Horizon-1); tt++ {
			var step []lp.Term
			for _, route := range d.Routes {
				x := lp.Term{Var: m.AddVar(0, lp.Inf, d.ValuePerByte), Coef: 1}
				step = append(step, x)
				for _, e := range route {
					flows[cell{int(e), tt}] = append(flows[cell{int(e), tt}], x)
				}
			}
			all = append(all, step...)
		}
		if len(all) == 0 {
			continue
		}
		m.AddConstraint(lp.LE, d.MaxBytes, all...)
		if d.MinBytes > 0 {
			m.AddConstraint(lp.GE, d.MinBytes, all...)
		}
	}
	type window struct {
		e      graph.Edge
		ws, we int
	}
	var charged []window
	for _, e := range ins.Net.Edges() {
		for tt := ins.StartStep; tt < ins.Horizon; tt++ {
			if terms := flows[cell{int(e.ID), tt}]; len(terms) > 0 {
				m.AddConstraint(lp.LE, ins.Capacity[e.ID][tt], terms...)
			}
		}
		for ws := 0; e.UsagePriced && ws < ins.Horizon; ws += ins.Cost.WindowLen {
			we := min(ws+ins.Cost.WindowLen, ins.Horizon)
			var loads []cost.LoadExpr
			schedulable := false
			for tt := ws; tt < we; tt++ {
				fixed := ins.FixedUsage[e.ID][tt]
				terms := flows[cell{int(e.ID), tt}]
				schedulable = schedulable || len(terms) > 0
				loads = append(loads, append(cost.LoadExpr{{Var: m.AddVar(fixed, fixed, 0), Coef: 1}}, terms...))
			}
			if we <= ins.StartStep || !schedulable {
				continue // sunk, or nothing the schedule can move
			}
			k := ins.Cost.K(we - ws)
			m.SetObj(cost.AddTopKBound(m, loads, k), -e.CostPerUnit/float64(k))
			charged = append(charged, window{e, ws, we})
		}
	}
	// A cold solve this size is the optimum of right-hand sides lp perturbed
	// by up to 2e-8 (its staged start); re-solving from the terminal basis
	// reads the same vertex against the pristine ones.
	sol, err := m.Solve(lp.Options{})
	if err == nil && sol.Status == lp.Optimal {
		sol, err = m.Solve(lp.Options{WarmBasis: sol.Basis()})
	}
	if err != nil || sol.Status != lp.Optimal {
		t.Fatalf("step %d explicit reference: %v %v", ins.StartStep, err, sol)
	}
	return sol.Objective, func(states []*admState) float64 {
		total := 0.0
		load := make(map[cell]float64)
		for _, a := range states {
			for _, al := range a.plan {
				total += a.adm.Lambda * al.Bytes
				for _, e := range a.adm.Request.Routes[al.RouteIdx] {
					load[cell{int(e), al.Time}] += al.Bytes
				}
			}
		}
		for _, w := range charged {
			var u []float64
			for tt := w.ws; tt < w.we; tt++ {
				u = append(u, ins.FixedUsage[w.e.ID][tt]+load[cell{int(w.e.ID), tt}])
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(u)))
			k := ins.Cost.K(w.we - w.ws)
			for _, x := range u[:k] {
				total -= w.e.CostPerUnit / float64(k) * x
			}
		}
		return total
	}
}

// TestSizeSelectedSAMMatchesExplicit runs the controller on an input wide
// enough that sched builds most steps' SAM models with implicit bounds and
// solves them through presolve, with no flag set anywhere, and holds every
// such step's installed plan to the optimum of an explicit formulation of
// the same instance at 1e-9 — the two build paths differ in the vertex they
// land on (a degenerate optimum), never in its value.
func TestSizeSelectedSAMMatchesExplicit(t *testing.T) {
	if testing.Short() || raceEnabled {
		// One goroutine, 9 s of floating point: the race detector has
		// nothing to find here and makes it two and a half minutes.
		t.Skip("end-to-end run past lp.LargeModelRows")
	}
	net, reqs, cfg := wideWAN(8, 5)
	w := &samWatch{}
	cfg.Chaos = w
	c, err := New(net, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The step whose plan is pending a check: its live set, the reference
	// optimum and scorer of its instance.
	var (
		pending []*admState
		optimum float64
		score   func([]*admState) float64
		step    int
		checked int
	)
	check := func() {
		if pending == nil {
			return
		}
		if got := score(pending); math.Abs(got-optimum) > 1e-9*math.Max(1, math.Abs(optimum)) {
			t.Errorf("step %d: installed plan scores %.12g, explicit optimum %.12g", step, got, optimum)
		}
		if c.samBuilt == nil || !c.samBuilt.Implicit() {
			t.Errorf("step %d: the implicit model was not retained", step)
		}
		pending = nil
		checked++
	}
	w.onSolve = func(now int) {
		check() // the previous step's plan is still installed
		live, horizon := c.liveSet(now)
		ins := c.samInstance(now, horizon, live, nil)
		if b, err := ins.Build(); err != nil || !b.Implicit() {
			return
		}
		pending, step = live, now
		optimum, score = explicitSAM(t, ins)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	check()

	if checked < 8 {
		t.Errorf("only %d steps crossed lp.LargeModelRows; the scenario no longer exercises the size selection", checked)
	}
	if c.samStats.Presolved != checked {
		t.Errorf("%d SAM solves ran presolved, %d instances built implicit", c.samStats.Presolved, checked)
	}
	if c.samBuilt != nil {
		t.Error("a model is still retained after the run's last, explicit, steps")
	}
	if c.Health.Degraded() {
		t.Errorf("health: %s", c.Health.Summary())
	}
	if err := sim.CheckCapacities(net, out.Usage, 1e-5); err != nil {
		t.Error(err)
	}
	rep, err := sim.Evaluate(net, reqs, out, cfg.Cost)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RenegedBytes > 1e-6 {
		t.Errorf("reneged %v bytes in a fault-free run", rep.RenegedBytes)
	}
	t.Logf("%d requests, %d of %d SAM steps size-selected implicit, welfare %.3f", len(reqs), checked, cfg.Horizon, rep.Welfare)
}

// TestRepairRidesSizeSelectedPath drains every link to 70% at a step whose
// live set is far past lp.LargeModelRows. The re-route rung poses only the
// affected transfers — a small instance, built explicit like any other — and
// comes back infeasible; the joint re-plan poses the whole live set, and must
// go where SAM's solves of that size go: through buildOrRebind into an
// implicit build, solved presolved, counted in the same samStats, retained.
func TestRepairRidesSizeSelectedPath(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("end-to-end run past lp.LargeModelRows") // as above
	}
	const cutAt = 5
	net, reqs, cfg := wideWAN(5, 1.5)
	cut := chaos.Outage{From: cutAt, To: cutAt + 3, Survive: 0.7}
	for _, e := range net.Edges() {
		cut.Edges = append(cut.Edges, e.ID)
	}
	w := &samWatch{inner: cut}
	cfg.Chaos = w
	c, err := New(net, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// samStats, and whether a model is retained, as each SAM-site solve of
	// the cut step begins: repair's two rungs, then the step's SAM ladder.
	type mark struct {
		stats    lp.SolveStats
		retained bool
	}
	var marks []mark
	w.onSolve = func(now int) {
		if now == cutAt {
			marks = append(marks, mark{c.samStats, c.samBuilt != nil})
		}
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireRepairLevel(t, c, LevelRepairReplan)
	if len(marks) != 3 {
		t.Fatalf("%d SAM-site solves began at the cut step, want reroute, replan, SAM", len(marks))
	}
	reroute, replan, sam := marks[0], marks[1], marks[2]
	if d := replan.stats.Presolved - reroute.stats.Presolved; d != 0 || replan.retained {
		t.Errorf("the affected-only reroute instance: %d presolved solves, retained=%v; want an explicit build", d, replan.retained)
	}
	if sam.stats.Solves-replan.stats.Solves != 1 || sam.stats.Presolved-replan.stats.Presolved != 1 || !sam.retained {
		t.Errorf("the whole-live-set replan: samStats moved %+v -> %+v, retained=%v; want one presolved solve on a retained implicit build",
			replan.stats, sam.stats, sam.retained)
	}
	rep, err := sim.Evaluate(net, reqs, out, cfg.Cost)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RenegedBytes > 1e-6 {
		t.Errorf("reneged %v bytes with a healthy solver", rep.RenegedBytes)
	}
}
