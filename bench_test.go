// Benchmarks regenerating each table and figure of the paper's evaluation
// at the Small scale (benchmarks must iterate; the full-size runs live in
// cmd/experiments). Every BenchmarkFigureN/BenchmarkTableN corresponds to
// one artifact in EXPERIMENTS.md, plus ablation benches for the design
// choices called out in DESIGN.md §5.
package pretium_test

import (
	"testing"

	"pretium"

	"pretium/internal/cost"
	"pretium/internal/exp"
	"pretium/internal/lp"
	"pretium/internal/sched"
)

func benchScale() exp.Scale { return exp.Small() }

func BenchmarkFigure1_TraceStatistics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := exp.Figure1(benchScale(), 1); len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFigure2_WorkedExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := exp.Figure2(); len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFigure4_PriceMenus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := exp.Figure4(); len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFigure5_ProxyCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := exp.Figure5(benchScale(), 1); len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// benchSweep runs the Figure 6/8/9 load sweep once per iteration over a
// reduced scheme set (the oracles' grid searches dominate otherwise).
func BenchmarkFigure6_8_9_LoadSweep(b *testing.B) {
	schemes := []string{exp.SchemeOPT, exp.SchemeNoPrices, exp.SchemeRegionOracle, exp.SchemePretium}
	for i := 0; i < b.N; i++ {
		sweep, err := exp.LoadSweep(benchScale(), []float64{1, 2}, schemes, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(exp.Figure6(sweep)) == 0 || len(exp.Figure8(sweep)) == 0 || len(exp.Figure9(sweep)) == 0 {
			b.Fatal("empty projection")
		}
	}
}

func BenchmarkFigure7_PricesAndValues(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pa, pb, pc, err := exp.Figure7(benchScale(), 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(pa) == 0 || len(pb) == 0 || len(pc) == 0 {
			b.Fatal("empty panel")
		}
	}
}

func BenchmarkFigure10_UtilizationCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Figure10(benchScale(), []string{exp.SchemeRegionOracle, exp.SchemePretium}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFigure11_Ablations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Figure11(benchScale(), []float64{1}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFigure12_CostSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Figure12(benchScale(), []float64{1, 2}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFigure13_14_ValueDistSweep(b *testing.B) {
	cases := exp.ValueDistCases()[:2]
	for i := 0; i < b.N; i++ {
		f13, f14, err := exp.Figure13and14(benchScale(), cases, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(f13) == 0 || len(f14) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable4_ModuleRuntimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table4(benchScale(), 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkIncentives_DeviationReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Incentives(benchScale(), 20, 1)
		if err != nil {
			b.Fatal(err)
		}
		if res.Sampled == 0 {
			b.Fatal("nothing sampled")
		}
	}
}

// Per-module benches (the Table 4 decomposition): RA quoting, SAM
// re-optimization, and the Price Computer's offline LP, each isolated.
func BenchmarkModuleRA_Admission(b *testing.B) {
	s := exp.NewSetup(benchScale())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := s.RunPretium(nil)
		if err != nil {
			b.Fatal(err)
		}
		_ = r
	}
}

func BenchmarkModuleOPT_OfflineLP(b *testing.B) {
	s := exp.NewSetup(benchScale())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunScheme(exp.SchemeOPT); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: the 3-constraint sorting-network emission (Theorem 4.2)
// versus the 5-constraint variant of [25] — constraint-count scaling is
// the relevant cost for large networks.
func BenchmarkTopKConstraintEmission(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := lp.NewModel()
		loads := make([]cost.LoadExpr, 48)
		for t := range loads {
			v := m.AddVar(0, 100, 0)
			loads[t] = cost.LoadExpr{{Var: v, Coef: 1}}
		}
		cost.AddTopKBound(m, loads, 5)
		if m.NumRows() == 0 {
			b.Fatal("no constraints emitted")
		}
	}
}

// Raw solver benchmark: a mid-size scheduling LP solved to optimality.
func BenchmarkLPSolver(b *testing.B) {
	build := func() *lp.Model {
		m := lp.NewModel()
		m.SetMaximize(true)
		const n, rows = 120, 60
		vars := make([]lp.Var, n)
		for j := range vars {
			vars[j] = m.AddVar(0, 10, float64(j%7)+1)
		}
		for i := 0; i < rows; i++ {
			var terms []lp.Term
			for j := i % 3; j < n; j += 3 {
				terms = append(terms, lp.Term{Var: vars[j], Coef: 1 + float64((i+j)%4)})
			}
			m.AddConstraint(lp.LE, 50+float64(i%11)*10, terms...)
		}
		return m
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := build().Solve(lp.Options{})
		if err != nil || sol.Status != lp.Optimal {
			b.Fatalf("solve failed: %v %v", err, sol.Status)
		}
	}
}

// BenchmarkSimplexWarmVsCold measures re-solving a SAM-shaped scheduling
// LP after a small capacity perturbation (the Pretium control loop's hot
// path: same structure, slightly different RHS), cold versus warm-started
// from the unperturbed optimum's basis. Shrinking capacity (a fault)
// knocks the old vertex primal infeasible — as essentially any RHS change
// does — so this exercises the full warm path: signature match, inverse
// reuse, dual-simplex cleanup, then phase 2. The "iters" metric is the
// simplex pivot count — the warm path should need a small fraction of the
// cold one's.
func BenchmarkSimplexWarmVsCold(b *testing.B) {
	s := exp.NewSetup(benchScale())
	build := func(capScale float64) *sched.Instance {
		demands := make([]sched.Demand, len(s.Requests))
		for i, r := range s.Requests {
			demands[i] = sched.Demand{
				ID: i, Routes: r.Routes, Start: r.Start, End: r.End,
				MaxBytes: r.Demand, ValuePerByte: r.Value,
			}
		}
		capacity := make([][]float64, s.Net.NumEdges())
		for _, e := range s.Net.Edges() {
			capacity[e.ID] = make([]float64, s.Scale.Steps)
			for t := range capacity[e.ID] {
				capacity[e.ID][t] = e.Capacity * capScale
			}
		}
		return &sched.Instance{
			Net: s.Net, Horizon: s.Scale.Steps, Capacity: capacity,
			Demands: demands, Cost: s.Cost, UseCostProxy: true,
		}
	}
	base, err := build(1).Solve(lp.Options{})
	if err != nil || base.Status != lp.Optimal {
		b.Fatalf("base solve: %v %v", err, base.Status)
	}
	warm := base.Basis

	run := func(b *testing.B, opts lp.Options) {
		iters := 0
		for i := 0; i < b.N; i++ {
			res, err := build(0.98).Solve(opts)
			if err != nil || res.Status != lp.Optimal {
				b.Fatalf("solve: %v %v", err, res.Status)
			}
			iters += res.Iterations
		}
		b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
	}
	b.Run("cold", func(b *testing.B) { run(b, lp.Options{}) })
	b.Run("warm", func(b *testing.B) { run(b, lp.Options{WarmBasis: warm}) })
}

func BenchmarkConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Convergence(benchScale(), 4, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkMenuQuoting(b *testing.B) {
	s := exp.NewSetup(benchScale())
	st := pretium.NewPriceState(s.Net, benchScale().Steps, 0.2)
	reqs := s.Requests
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := reqs[i%len(reqs)]
		if m := pretium.QuoteMenu(st, r, r.Demand); m == nil {
			b.Fatal("nil menu")
		}
	}
}

// BenchmarkAdmitterServing measures the full admission step — quote,
// Theorem 5.2 purchase, commit — through the exported batched front-end,
// over the Small-scale request stream (reservations accumulate, so later
// iterations quote against a loaded network, as a live RA would).
func BenchmarkAdmitterServing(b *testing.B) {
	s := exp.NewSetup(benchScale())
	st := pretium.NewPriceState(s.Net, benchScale().Steps, 0.2)
	ad := pretium.NewAdmitter(st)
	reqs := s.Requests
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := reqs[i%len(reqs)]
		ad.Admit(r)
	}
}
