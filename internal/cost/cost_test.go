package cost

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pretium/internal/graph"
	"pretium/internal/lp"
	"pretium/internal/stats"
)

func TestConfigK(t *testing.T) {
	cfg := DefaultConfig(24)
	cases := []struct{ T, want int }{
		{24, 2}, {30, 3}, {10, 1}, {1, 1}, {5, 1}, {100, 10},
	}
	for _, c := range cases {
		if got := cfg.K(c.T); got != c.want {
			t.Errorf("K(%d) = %d, want %d", c.T, got, c.want)
		}
	}
	// k never exceeds T.
	if got := (Config{TopFrac: 2}).K(3); got != 3 {
		t.Errorf("K clamp = %d, want 3", got)
	}
}

func usageEdge(cost float64) graph.Edge {
	return graph.Edge{UsagePriced: true, CostPerUnit: cost}
}

func TestExactWindowCost(t *testing.T) {
	cfg := DefaultConfig(10)
	usage := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	got := ExactWindowCost(usageEdge(2), usage, cfg)
	p95, _ := stats.Percentile(usage, 95)
	if math.Abs(got-2*p95) > 1e-9 {
		t.Errorf("ExactWindowCost = %v, want %v", got, 2*p95)
	}
	// Non-usage-priced edges are free.
	if c := ExactWindowCost(graph.Edge{}, usage, cfg); c != 0 {
		t.Errorf("owned link charged %v", c)
	}
	if c := ExactWindowCost(usageEdge(2), nil, cfg); c != 0 {
		t.Errorf("empty window charged %v", c)
	}
}

func TestProxyWindowCost(t *testing.T) {
	cfg := DefaultConfig(10)
	usage := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// k = 1 for T=10, so proxy charges the max.
	got := ProxyWindowCost(usageEdge(3), usage, cfg)
	if math.Abs(got-30) > 1e-9 {
		t.Errorf("ProxyWindowCost = %v, want 30", got)
	}
}

// TestProxyBiasAndCorrelation checks the §4.2 claim backing the proxy:
// z_e is positively biased over the 95th-percentile usage on average, and
// the two are strongly linearly correlated across windows (Figure 5).
func TestProxyBiasAndCorrelation(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	cfg := DefaultConfig(40)
	e := usageEdge(1)
	// Each trial models one link: links differ in utilization scale,
	// which is what makes the Figure 5 scatter linear.
	var zs, ys []float64
	for trial := 0; trial < 300; trial++ {
		scale := math.Exp(r.Float64()*4 - 2) // lognormal-ish link scales
		usage := make([]float64, 40)
		for i := range usage {
			usage[i] = scale * stats.Pareto{Xm: 1, Alpha: 3.5}.Sample(r)
		}
		zs = append(zs, ProxyWindowCost(e, usage, cfg))
		ys = append(ys, ExactWindowCost(e, usage, cfg))
	}
	if bias := stats.Mean(zs) - stats.Mean(ys); bias <= 0 {
		t.Errorf("proxy bias = %v, expected positive", bias)
	}
	lr, err := stats.LinearRegression(ys, zs)
	if err != nil {
		t.Fatal(err)
	}
	if lr.R2 < 0.8 {
		t.Errorf("proxy/exact R2 = %v, expected strong linear correlation", lr.R2)
	}
}

func TestScheduleCostWindows(t *testing.T) {
	n := graph.New()
	a := n.AddNode("a", "r")
	b := n.AddNode("b", "r")
	e := n.AddEdge(a, b, 10)
	n.SetUsagePriced(e, 1)
	free := n.AddEdge(b, a, 10) // not usage-priced
	_ = free

	cfg := DefaultConfig(2)
	usage := make([][]float64, n.NumEdges())
	usage[e] = []float64{1, 3, 5, 7} // windows [1,3] and [5,7]
	usage[free] = []float64{100, 100, 100, 100}

	got := ExactScheduleCost(n, usage, cfg)
	w1, _ := stats.Percentile([]float64{1, 3}, 95)
	w2, _ := stats.Percentile([]float64{5, 7}, 95)
	if math.Abs(got-(w1+w2)) > 1e-9 {
		t.Errorf("ExactScheduleCost = %v, want %v", got, w1+w2)
	}
}

func TestScheduleCostPartialWindow(t *testing.T) {
	n := graph.New()
	a := n.AddNode("a", "r")
	b := n.AddNode("b", "r")
	e := n.AddEdge(a, b, 10)
	n.SetUsagePriced(e, 1)
	cfg := DefaultConfig(3)
	usage := make([][]float64, 1)
	usage[e] = []float64{2, 4, 6, 8} // window [2,4,6] + partial [8]
	got := ExactScheduleCost(n, usage, cfg)
	w1, _ := stats.Percentile([]float64{2, 4, 6}, 95)
	if math.Abs(got-(w1+8)) > 1e-9 {
		t.Errorf("cost = %v, want %v", got, w1+8)
	}
}

// solveTopK fixes the loads to the given constants, minimizes S under the
// sorting-network constraints, and returns the optimal S.
func solveTopK(t *testing.T, loads []float64, k int) float64 {
	t.Helper()
	m := lp.NewModel()
	exprs := make([]LoadExpr, len(loads))
	for i, v := range loads {
		x := m.AddVar(v, v, 0)
		exprs[i] = LoadExpr{{Var: x, Coef: 1}}
	}
	s := AddTopKBound(m, exprs, k)
	m.SetObj(s, 1) // minimize S
	sol, err := m.Solve(lp.Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != lp.Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	return sol.X[s]
}

func bruteTopKTotal(loads []float64, k int) float64 {
	sorted := append([]float64(nil), loads...)
	sort.Float64s(sorted)
	if k > len(sorted) {
		k = len(sorted)
	}
	sum := 0.0
	for _, v := range sorted[len(sorted)-k:] {
		sum += v
	}
	return sum
}

func TestTopKBoundExactSmall(t *testing.T) {
	cases := []struct {
		loads []float64
		k     int
	}{
		{[]float64{5, 1, 9, 3}, 1},
		{[]float64{5, 1, 9, 3}, 2},
		{[]float64{5, 1, 9, 3}, 3},
		{[]float64{5, 1, 9, 3}, 4}, // k == T path
		{[]float64{7}, 1},
		{[]float64{2, 2, 2, 2, 2}, 2}, // ties
		{[]float64{0, 0, 0}, 1},
	}
	for _, c := range cases {
		got := solveTopK(t, c.loads, c.k)
		want := bruteTopKTotal(c.loads, c.k)
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("topk(%v, k=%d) = %v, want %v", c.loads, c.k, got, want)
		}
	}
}

// Property (Theorem 4.2): for random loads and any k, the minimized S
// equals the top-k sum exactly — the constraints are both valid (S can
// never be below the top-k sum) and tight (S reaches it).
func TestTopKBoundTheoremProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		T := 2 + r.Intn(9)
		k := 1 + r.Intn(T)
		loads := make([]float64, T)
		for i := range loads {
			loads[i] = math.Floor(r.Float64()*100) / 4
		}
		got := solveTopK(t, loads, k)
		want := bruteTopKTotal(loads, k)
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("trial %d: topk(T=%d, k=%d) = %v, want %v (loads %v)",
				trial, T, k, got, want, loads)
		}
	}
}

// The bound must hold for *expressions*, not just single variables: loads
// that are sums of flow variables.
func TestTopKBoundOverExpressions(t *testing.T) {
	m := lp.NewModel()
	m.SetMaximize(true)
	// Two flows, each contributing to both timesteps' loads.
	f1 := m.AddVar(0, 10, 1)
	f2 := m.AddVar(0, 10, 1)
	loads := []LoadExpr{
		{{Var: f1, Coef: 1}, {Var: f2, Coef: 0.5}},
		{{Var: f1, Coef: 0.5}, {Var: f2, Coef: 1}},
		{{Var: f1, Coef: 0.1}},
	}
	s := AddTopKBound(m, loads, 1)
	// Objective: maximize f1 + f2 - 2*S. Flows are worth 1 each but the
	// peak is charged at 2, so the optimizer balances.
	m.SetObj(s, -2)
	sol, err := m.Solve(lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	// Whatever the optimum, S must equal the max load (tight at optimum).
	l0 := sol.X[f1] + 0.5*sol.X[f2]
	l1 := 0.5*sol.X[f1] + sol.X[f2]
	l2 := 0.1 * sol.X[f1]
	maxLoad := math.Max(l0, math.Max(l1, l2))
	if math.Abs(sol.X[s]-maxLoad) > 1e-6 {
		t.Errorf("S = %v, max load = %v", sol.X[s], maxLoad)
	}
}

func TestAddTopKBoundPanics(t *testing.T) {
	m := lp.NewModel()
	x := m.AddVar(0, 1, 0)
	le := []LoadExpr{{{Var: x, Coef: 1}}}
	for _, f := range []func(){
		func() { AddTopKBound(m, nil, 1) },
		func() { AddTopKBound(m, le, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestTopKConstraintCount(t *testing.T) {
	// T=5, k=2: comparators = 4 + 3 = 7, constraints = 22.
	if got := TopKConstraintCount(5, 2); got != 22 {
		t.Errorf("count = %d, want 22", got)
	}
	if got := TopKConstraintCount(5, 5); got != 1 {
		t.Errorf("k>=T count = %d, want 1", got)
	}
	// Emitted count matches the formula.
	m := lp.NewModel()
	loads := make([]LoadExpr, 5)
	for i := range loads {
		x := m.AddVar(0, 1, 0)
		loads[i] = LoadExpr{{Var: x, Coef: 1}}
	}
	before := m.NumRows()
	AddTopKBound(m, loads, 2)
	if got := m.NumRows() - before; got != TopKConstraintCount(5, 2) {
		t.Errorf("emitted %d rows, formula says %d", got, TopKConstraintCount(5, 2))
	}
}

// Property: both cost evaluators are nonnegative, bounded by C_e times the
// window max, and the proxy never falls below C_e times the window mean.
func TestCostEvaluatorBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		usage := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			usage = append(usage, math.Abs(math.Mod(v, 1e6)))
		}
		if len(usage) == 0 {
			return true
		}
		cfg := DefaultConfig(len(usage))
		e := usageEdge(2)
		max := 0.0
		for _, v := range usage {
			if v > max {
				max = v
			}
		}
		proxy := ProxyWindowCost(e, usage, cfg)
		exact := ExactWindowCost(e, usage, cfg)
		mean := stats.Mean(usage)
		return proxy >= 0 && exact >= 0 &&
			proxy <= 2*max+1e-9 && exact <= 2*max+1e-9 &&
			proxy >= 2*mean-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
