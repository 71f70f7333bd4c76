package sched

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pretium/internal/cost"
	"pretium/internal/graph"
	"pretium/internal/lp"
)

// cloneInstance deep-copies the instance data that solving or rebinding may
// read, so tests can perturb successors without aliasing the original.
func cloneInstance(ins *Instance) *Instance {
	cp := *ins
	cp.Capacity = make([][]float64, len(ins.Capacity))
	for e := range ins.Capacity {
		cp.Capacity[e] = append([]float64(nil), ins.Capacity[e]...)
	}
	if ins.FixedUsage != nil {
		cp.FixedUsage = make([][]float64, len(ins.FixedUsage))
		for e := range ins.FixedUsage {
			cp.FixedUsage[e] = append([]float64(nil), ins.FixedUsage[e]...)
		}
	}
	cp.Demands = append([]Demand(nil), ins.Demands...)
	return &cp
}

// checkFeasible verifies a result against the instance's hard constraints:
// capacity, demand caps, and (unless relaxed) guarantees.
func checkFeasible(t *testing.T, ins *Instance, res *Result, guarantees bool) {
	t.Helper()
	const tol = 1e-6
	for e := range res.EdgeUsage {
		for tt, u := range res.EdgeUsage[e] {
			if u > ins.Capacity[e][tt]+tol {
				t.Errorf("edge %d t=%d usage %v exceeds capacity %v", e, tt, u, ins.Capacity[e][tt])
			}
		}
	}
	for di, d := range ins.Demands {
		if res.Delivered[di] > d.MaxBytes+tol {
			t.Errorf("demand %d delivered %v exceeds cap %v", di, res.Delivered[di], d.MaxBytes)
		}
		if guarantees && res.Delivered[di] < d.MinBytes-tol {
			t.Errorf("demand %d delivered %v below guarantee %v", di, res.Delivered[di], d.MinBytes)
		}
	}
}

// mustBuild forces a build mode regardless of size, for holding the two
// formulations against each other.
func mustBuild(t *testing.T, ins *Instance, implicit bool) *Built {
	t.Helper()
	if err := ins.checkShape(); err != nil {
		t.Fatalf("checkShape: %v", err)
	}
	b, err := ins.build(implicit)
	if err != nil {
		t.Fatalf("build(implicit=%v): %v", implicit, err)
	}
	return b
}

// TestImplicitBoundsDifferential solves the bench instances both ways
// Build can — explicit rows, and implicit bounds through lp presolve — and
// demands identical status and objective plus a feasible allocation from
// each. The implicit build is a different (smaller) formulation of the same
// polytope, so vertices may differ under degeneracy; the optimum value may
// not.
func TestImplicitBoundsDifferential(t *testing.T) {
	for _, sc := range benchScales[:2] { // Small, Medium
		for _, wantPrices := range []bool{false, true} {
			ins := benchInstance(sc, 7)
			ins.WantPrices = wantPrices
			ref, err := mustBuild(t, ins, false).Solve(lp.Options{})
			if err != nil {
				t.Fatalf("%s explicit solve: %v", sc.name, err)
			}
			var stats lp.SolveStats
			res, err := mustBuild(t, ins, true).Solve(lp.Options{Stats: &stats})
			if err != nil {
				t.Fatalf("%s implicit prices=%v: %v", sc.name, wantPrices, err)
			}
			if stats.Presolved != 1 {
				t.Errorf("%s implicit solve skipped presolve", sc.name)
			}
			if res.Status != ref.Status {
				t.Fatalf("%s status %v, explicit %v", sc.name, res.Status, ref.Status)
			}
			if relDiff(res.Objective, ref.Objective) > 1e-6 {
				t.Errorf("%s prices=%v objective %v, explicit %v",
					sc.name, wantPrices, res.Objective, ref.Objective)
			}
			checkFeasible(t, ins, ref, true)
			checkFeasible(t, ins, res, true)
		}
	}
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestImplicitPricesMatch pins the dual-derived prices across build modes
// on a congested instance whose duals are unique: one saturated link priced
// by two competing demands. Presolve drops the slack capacity rows but must
// still report the binding one's shadow price.
func TestImplicitPricesMatch(t *testing.T) {
	n, _, _ := lineNet(10)
	path := n.ShortestPath(0, 2)
	base := &Instance{
		Net: n, Horizon: 2, Capacity: capMatrix(n, 2),
		Demands: []Demand{
			{ID: 0, Routes: []graph.Path{path}, Start: 0, End: 1, MaxBytes: 30, ValuePerByte: 5},
			{ID: 1, Routes: []graph.Path{path}, Start: 0, End: 1, MaxBytes: 30, ValuePerByte: 1},
		},
		Cost:       cost.DefaultConfig(2),
		WantPrices: true,
	}
	ref := solveOK(t, base)
	res, err := mustBuild(t, base, true).Solve(lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lp.Optimal {
		t.Fatalf("status %v", res.Status)
	}
	for e := range ref.Price {
		for tt := range ref.Price[e] {
			if math.Abs(res.Price[e][tt]-ref.Price[e][tt]) > 1e-6 {
				t.Errorf("price[%d][%d] = %v, explicit %v", e, tt, res.Price[e][tt], ref.Price[e][tt])
			}
		}
	}
}

// advance derives the step-τ successor of a bench instance the way the SAM
// loop does: the start step moves forward, remaining demand shrinks, values
// drift, and capacity wobbles. FixedUsage stays zero so a window with no
// remaining flexibility charges nothing under both build paths (see the
// Rebind doc for the divergence nonzero sunk usage would introduce there).
func advance(base *Instance, step int) *Instance {
	ins := cloneInstance(base)
	ins.StartStep = step
	for di := range ins.Demands {
		d := &ins.Demands[di]
		d.MaxBytes *= 0.9
		d.MinBytes *= 0.8
		d.ValuePerByte *= 1.03
	}
	for e := range ins.Capacity {
		for tt := range ins.Capacity[e] {
			ins.Capacity[e][tt] *= 0.97
		}
	}
	return ins
}

// TestRebindMatchesFreshBuild walks a bench instance through successive
// SAM-style steps, patching one retained model with Rebind while building a
// fresh model for the same successor, and requires both to agree on status
// and objective — cold and warm-started.
func TestRebindMatchesFreshBuild(t *testing.T) {
	base := benchInstance(benchScales[1], 11) // Medium
	built := mustBuild(t, base, true)
	res, err := built.Solve(lp.Options{})
	if err != nil || res.Status != lp.Optimal {
		t.Fatalf("initial solve: %v %v", err, res)
	}
	basis := res.Basis
	for step := 1; step <= 4; step++ {
		ins := advance(base, step)
		if err := built.rebind(ins); err != nil {
			t.Fatalf("step %d rebind: %v", step, err)
		}
		warm, err := built.Solve(lp.Options{WarmBasis: basis})
		if err != nil {
			t.Fatalf("step %d rebind solve: %v", step, err)
		}
		basis = warm.Basis

		fresh, err := ins.Solve(lp.Options{})
		if err != nil {
			t.Fatalf("step %d fresh solve: %v", step, err)
		}
		if warm.Status != fresh.Status {
			t.Fatalf("step %d status rebind=%v fresh=%v", step, warm.Status, fresh.Status)
		}
		if relDiff(warm.Objective, fresh.Objective) > 1e-6 {
			t.Errorf("step %d objective rebind=%v fresh=%v", step, warm.Objective, fresh.Objective)
		}
		checkFeasible(t, ins, warm, true)
	}
}

// TestRebindRelaxGuarantees drives a rebound model into infeasibility (a
// capacity collapse the guarantees no longer fit under), relaxes in place,
// and checks the relaxed re-solve matches a fresh build relaxed the same
// way — covering a one-variable guarantee, which presolve folds into a
// bound, and a multi-variable one, which stays a row.
func TestRebindRelaxGuarantees(t *testing.T) {
	n, _, _ := lineNet(10)
	path := n.ShortestPath(0, 2)
	base := &Instance{
		Net: n, Horizon: 4, Capacity: capMatrix(n, 4),
		Demands: []Demand{
			// Single-variable demand: presolve folds its guarantee into a
			// lower bound.
			{ID: 0, Routes: []graph.Path{path}, Start: 1, End: 1, MaxBytes: 8, MinBytes: 4, ValuePerByte: 1},
			// Multi-step demand: guarantee stays a GE row.
			{ID: 1, Routes: []graph.Path{path}, Start: 1, End: 3, MaxBytes: 30, MinBytes: 12, ValuePerByte: 3},
		},
		Cost: cost.DefaultConfig(4),
	}
	built := mustBuild(t, base, true)
	if res, err := built.Solve(lp.Options{}); err != nil || res.Status != lp.Optimal {
		t.Fatalf("initial solve: %v %v", err, res)
	}

	// Capacity collapses to 3 per step from step 1 on: demand 0's guarantee
	// of 4 no longer fits its one variable's implicit bound. Rebind patches
	// the guarantee row like any other, the rebound model reports
	// infeasibility, and relaxing in place must agree with a fresh build
	// relaxed the same way.
	shocked := cloneInstance(base)
	shocked.StartStep = 1
	for e := range shocked.Capacity {
		for tt := 1; tt < 4; tt++ {
			shocked.Capacity[e][tt] = 3
		}
	}
	if err := built.rebind(shocked); err != nil {
		t.Fatalf("rebind: %v", err)
	}
	res, err := built.Solve(lp.Options{})
	if err != nil {
		t.Fatalf("shocked solve: %v", err)
	}
	if res.Status != lp.Infeasible {
		t.Fatalf("shocked status %v, want infeasible", res.Status)
	}
	built.RelaxGuarantees()
	relaxed, err := built.Solve(lp.Options{WarmBasis: res.Basis})
	if err != nil || relaxed.Status != lp.Optimal {
		t.Fatalf("relaxed solve: %v %v", err, relaxed)
	}

	refBuilt := mustBuild(t, shocked, false)
	refRes, err := refBuilt.Solve(lp.Options{})
	if err != nil || refRes.Status != lp.Infeasible {
		t.Fatalf("ref shocked solve: %v %v", err, refRes)
	}
	refBuilt.RelaxGuarantees()
	refRelaxed, err := refBuilt.Solve(lp.Options{})
	if err != nil || refRelaxed.Status != lp.Optimal {
		t.Fatalf("ref relaxed solve: %v %v", err, refRelaxed)
	}
	if relDiff(relaxed.Objective, refRelaxed.Objective) > 1e-6 {
		t.Errorf("relaxed objective %v, ref %v", relaxed.Objective, refRelaxed.Objective)
	}
	checkFeasible(t, shocked, relaxed, false)
}

// TestRebindFixedUsage verifies FixedUsage re-pinning: realized traffic
// moved into FixedUsage after a step advance must count toward the window
// percentile exactly as a fresh build counts it.
func TestRebindFixedUsage(t *testing.T) {
	n, e1, _ := lineNet(10)
	path := n.ShortestPath(0, 2)
	mk := func() *Instance {
		return &Instance{
			Net: n, Horizon: 4, Capacity: capMatrix(n, 4),
			FixedUsage: make2d(n.NumEdges(), 4),
			Demands: []Demand{
				{ID: 0, Routes: []graph.Path{path}, Start: 0, End: 3, MaxBytes: 25, ValuePerByte: 2},
			},
			Cost:         cost.Config{WindowLen: 4, Percentile: 0.75},
			UseCostProxy: true,
		}
	}
	built := mustBuild(t, mk(), true)
	if res, err := built.Solve(lp.Options{}); err != nil || res.Status != lp.Optimal {
		t.Fatalf("initial solve: %v %v", err, res)
	}

	next := mk()
	next.StartStep = 1
	next.Demands[0].MaxBytes = 17 // 8 realized at t=0
	next.FixedUsage[e1][0] = 8
	if err := built.rebind(next); err != nil {
		t.Fatalf("rebind: %v", err)
	}
	got, err := built.Solve(lp.Options{})
	if err != nil || got.Status != lp.Optimal {
		t.Fatalf("rebind solve: %v %v", err, got)
	}
	want, err := next.Solve(lp.Options{})
	if err != nil || want.Status != lp.Optimal {
		t.Fatalf("fresh solve: %v %v", err, want)
	}
	if relDiff(got.Objective, want.Objective) > 1e-6 {
		t.Errorf("objective rebind=%v fresh=%v", got.Objective, want.Objective)
	}
}

func make2d(n, m int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, m)
	}
	return out
}

// paddedInstance returns an instance whose explicit build has exactly rows
// rows: single-step, single-route demands dealt round-robin over a 64-step
// axis on the two-hop line, so each demand is one cap row and each step
// two capacity rows.
func paddedInstance(rows int) *Instance {
	const horizon = 64
	n, _, _ := lineNet(1e6)
	path := n.ShortestPath(0, 2)
	ins := &Instance{Net: n, Horizon: horizon, Capacity: capMatrix(n, horizon), Cost: cost.DefaultConfig(horizon)}
	for i := 0; i < rows-2*horizon; i++ {
		ins.Demands = append(ins.Demands, Demand{
			ID: i, Routes: []graph.Path{path}, Start: i % horizon, End: i % horizon,
			MaxBytes: 1 + float64(i%7), ValuePerByte: 1,
		})
	}
	return ins
}

// modelDump renders everything a solve reads from m: each variable's
// bounds and objective coefficient, each row's sense, right-hand side and
// terms. Floats print in their shortest exact form, so two dumps are equal
// only if the models are equal coefficient for coefficient.
func modelDump(m *lp.Model) string {
	var b strings.Builder
	for j := 0; j < m.NumVars(); j++ {
		lo, up := m.Bounds(lp.Var(j))
		fmt.Fprintf(&b, "x%d [%v, %v] %v\n", j, lo, up, m.Obj(lp.Var(j)))
	}
	for i := 0; i < m.NumRows(); i++ {
		sense, rhs, terms := m.Constraint(lp.Row(i))
		fmt.Fprintf(&b, "r%d %v %v:", i, sense, rhs)
		for _, t := range terms {
			fmt.Fprintf(&b, " %v*x%d", t.Coef, t.Var)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestBuildSelectsBySize pins the rule Build owns: the model is the explicit
// one (coefficient for coefficient) below lp.LargeModelRows explicit rows
// and the implicit one at or above, flipping exactly at the constant.
func TestBuildSelectsBySize(t *testing.T) {
	cases := []struct {
		name     string
		ins      *Instance
		implicit bool
	}{
		{"Small", benchInstance(benchScales[0], 42), false},
		{"Medium", benchInstance(benchScales[1], 42), false},
		{"Paper", benchInstance(benchScales[3], 42), true},
		{"threshold-1", paddedInstance(lp.LargeModelRows - 1), false},
		{"threshold", paddedInstance(lp.LargeModelRows), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := tc.ins.Build()
			if err != nil {
				t.Fatal(err)
			}
			if b.Implicit() != tc.implicit {
				t.Fatalf("Build chose implicit=%v at %d explicit rows", b.Implicit(), tc.ins.explicitRows())
			}
			ref := mustBuild(t, tc.ins, tc.implicit)
			dump := modelDump(b.model)
			if dump != modelDump(ref.model) {
				t.Errorf("Build's model differs from build(%v)'s", tc.implicit)
			}
			// The comparison sees a one-coefficient difference.
			last := lp.Var(ref.model.NumVars() - 1)
			ref.model.SetObj(last, math.Nextafter(ref.model.Obj(last), math.Inf(1)))
			if modelDump(ref.model) == dump {
				t.Errorf("modelDump misses a one-ulp objective change")
			}
		})
	}
}

// TestExplicitRowsMatchesBuild holds the count Build selects on equal to the
// rows the explicit build emits, across every feature that adds rows:
// guarantees, Allowed masks, a late StartStep, cost windows with and without
// load-definition rows.
func TestExplicitRowsMatchesBuild(t *testing.T) {
	check := func(name string, ins *Instance) {
		t.Helper()
		if got, want := ins.explicitRows(), mustBuild(t, ins, false).model.NumRows(); got != want {
			t.Errorf("%s: explicitRows = %d, build(false) emitted %d", name, got, want)
		}
	}
	for _, sc := range benchScales {
		ins := benchInstance(sc, 42)
		check(sc.name, ins)
		ins.WantPrices = true
		check(sc.name+"/prices", ins)
	}
	check("padded", paddedInstance(lp.LargeModelRows))
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		ins := benchInstance(benchScales[seed%2], seed)
		ins.StartStep = r.Intn(ins.Horizon + 1)
		ins.UseCostProxy = r.Intn(4) > 0
		ins.WantPrices = r.Intn(2) == 0
		ins.Cost.WindowLen = 1 + r.Intn(ins.Horizon)
		ins.FixedUsage = make2d(ins.Net.NumEdges(), ins.Horizon)
		for di := range ins.Demands {
			d := &ins.Demands[di]
			d.MinBytes = 0 // a guarantee with no steps left is a build error, not a count
			if r.Intn(3) == 0 {
				d.Routes = d.Routes[:1]
			}
			if r.Intn(4) == 0 {
				d.Allowed = []int{d.Start, d.End, -1, ins.Horizon + 3}
			}
		}
		check(fmt.Sprintf("seed %d", seed), ins)
	}
}

// TestRebindRejectsStructuralChange enumerates the structural drifts Rebind
// must refuse: they would silently desynchronize the model from the
// instance if patched as data. The last case is not a drift at all — the
// unexported rebind patches it happily — but a successor small enough that
// Build would make it explicit: accepting it would let the path a step runs
// on depend on what the previous step retained.
func TestRebindRejectsStructuralChange(t *testing.T) {
	base := paddedInstance(lp.LargeModelRows + 8)
	fresh := func() *Built {
		b, err := base.Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return b
	}
	cases := []struct {
		name     string
		mut      func(*Instance)
		rebindOK bool
	}{
		{"horizon", func(ins *Instance) { ins.Horizon++ }, false},
		{"start-regresses", func(ins *Instance) { ins.StartStep = -1 }, false},
		{"demand-count", func(ins *Instance) { ins.Demands = ins.Demands[:len(ins.Demands)-1] }, false},
		{"interval", func(ins *Instance) { ins.Demands[0].End++ }, false},
		{"cost-config", func(ins *Instance) { ins.Cost.WindowLen++ }, false},
		{"explicit-mode", func(ins *Instance) { ins.StartStep = 1 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ins := cloneInstance(base)
			tc.mut(ins)
			if err := fresh().Rebind(ins); err == nil {
				t.Fatalf("Rebind accepted %s change", tc.name)
			}
			if err := fresh().rebind(ins); (err == nil) != tc.rebindOK {
				t.Fatalf("rebind: %v, want accepted=%v", err, tc.rebindOK)
			}
		})
	}
	// A pure data change is accepted.
	ins := cloneInstance(base)
	ins.Demands[0].MaxBytes *= 0.5
	if err := fresh().Rebind(ins); err != nil {
		t.Fatalf("Rebind rejected a data-only change: %v", err)
	}
}
