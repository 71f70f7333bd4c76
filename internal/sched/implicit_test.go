package sched

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
// capacity, demand caps, and (when guarantees is set) guarantees.
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
// Build can — explicit rows, and implicit bounds, which lp presolves only
// from lp.LargeModelRows rows on — and demands identical status and
// objective plus a feasible allocation from
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
			res, err := mustBuild(t, ins, true).Solve(lp.Options{})
			if err != nil {
				t.Fatalf("%s implicit prices=%v: %v", sc.name, wantPrices, err)
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

// reprice derives the step-τ successor of a bench instance the way a SAM
// step that keeps its model sees it: every demand's value per byte moves by
// a factor that depends on the step alone, and nothing else changes.
func reprice(base *Instance, step int) *Instance {
	ins := cloneInstance(base)
	r := rand.New(rand.NewSource(int64(step)))
	for di := range ins.Demands {
		ins.Demands[di].ValuePerByte *= 0.5 + r.Float64()
	}
	return ins
}

// TestRebindMatchesFreshBuild walks a bench instance through successive
// re-pricings in both build modes, re-pricing one retained model with
// Rebind while building a fresh model for the same successor. Solved cold,
// the two must agree bit for bit, allocations and prices included; solved
// from the previous step's basis, the retained model must start warm and
// reach the same optimum.
func TestRebindMatchesFreshBuild(t *testing.T) {
	base := benchInstance(benchScales[1], 11) // Medium
	base.WantPrices = true
	for _, implicit := range []bool{false, true} {
		built := mustBuild(t, base, implicit)
		res, err := built.Solve(lp.Options{})
		if err != nil || res.Status != lp.Optimal {
			t.Fatalf("implicit=%v: initial solve: %v %v", implicit, err, res)
		}
		basis := res.Basis
		for step := 1; step <= 2; step++ {
			ctx := fmt.Sprintf("implicit=%v step %d", implicit, step)
			ins := reprice(base, step)
			if err := built.Rebind(ins); err != nil {
				t.Fatalf("%s: Rebind: %v", ctx, err)
			}
			cold, err := built.Solve(lp.Options{})
			if err != nil {
				t.Fatalf("%s: rebound solve: %v", ctx, err)
			}
			fresh, err := mustBuild(t, ins, implicit).Solve(lp.Options{})
			if err != nil {
				t.Fatalf("%s: fresh solve: %v", ctx, err)
			}
			if cold.Status != lp.Optimal || fresh.Status != lp.Optimal ||
				math.Float64bits(cold.Objective) != math.Float64bits(fresh.Objective) ||
				!reflect.DeepEqual(cold.Allocs, fresh.Allocs) || !reflect.DeepEqual(cold.Price, fresh.Price) {
				t.Fatalf("%s: rebound %v objective %v, fresh %v objective %v, or their allocations or prices differ",
					ctx, cold.Status, cold.Objective, fresh.Status, fresh.Objective)
			}
			var stats lp.SolveStats
			warm, err := built.Solve(lp.Options{WarmBasis: basis, Stats: &stats})
			if err != nil || warm.Status != lp.Optimal {
				t.Fatalf("%s: warm solve: %v %v", ctx, err, warm)
			}
			if stats.WarmStarts != 1 {
				t.Errorf("%s: the previous basis did not warm-start the re-priced model", ctx)
			}
			if relDiff(warm.Objective, fresh.Objective) > 1e-6 {
				t.Errorf("%s: objective warm=%v fresh=%v", ctx, warm.Objective, fresh.Objective)
			}
			checkFeasible(t, ins, warm, true)
			basis = warm.Basis
		}
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
	// A priced guarantee adds a shortfall column to its row, not a row.
	shortfall := benchInstance(benchScales[0], 3)
	for di := range shortfall.Demands {
		d := &shortfall.Demands[di]
		if di%2 == 0 {
			d.MinBytes = 0.3 * d.MaxBytes
		}
		d.ShortfallCost = 1
	}
	check("shortfall", shortfall)
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

// TestRebindRejectsStructuralChange enumerates the changes Rebind must
// refuse, one per field of the instance that is not a value per byte:
// patched as an objective edit they would silently desynchronize the model
// from the instance.
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
		name string
		mut  func(*Instance)
	}{
		{"network", func(ins *Instance) { ins.Net, _, _ = lineNet(1e6) }},
		{"horizon", func(ins *Instance) { ins.Horizon++ }},
		{"start-regresses", func(ins *Instance) { ins.StartStep = -1 }},
		{"start-step", func(ins *Instance) { ins.StartStep = 1 }},
		{"capacity", func(ins *Instance) { ins.Capacity[1][3] *= 0.5 }},
		{"fixed-usage", func(ins *Instance) {
			ins.FixedUsage = make2d(ins.Net.NumEdges(), ins.Horizon)
			ins.FixedUsage[1][3] = 1
		}},
		{"demand-count", func(ins *Instance) { ins.Demands = ins.Demands[:len(ins.Demands)-1] }},
		{"interval", func(ins *Instance) { ins.Demands[0].End++ }},
		{"max-bytes", func(ins *Instance) { ins.Demands[0].MaxBytes *= 0.5 }},
		{"min-bytes", func(ins *Instance) { ins.Demands[0].MinBytes = 0.5 }},
		{"cost-config", func(ins *Instance) { ins.Cost.WindowLen++ }},
		{"shortfall-cost", func(ins *Instance) { ins.Demands[0].ShortfallCost = 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ins := cloneInstance(base)
			tc.mut(ins)
			if err := fresh().Rebind(ins); err == nil {
				t.Fatalf("Rebind accepted a %s change", tc.name)
			}
		})
	}
	// A value change is accepted.
	ins := cloneInstance(base)
	ins.Demands[0].ValuePerByte *= 0.5
	if err := fresh().Rebind(ins); err != nil {
		t.Fatalf("Rebind rejected a value-only change: %v", err)
	}
}

// TestRebindRefusalLeavesModelUntouched: a successor that lowers demand 0's
// cap and gives demand 1 a guarantee is refused, and the refusal writes
// nothing — re-solving the built model reproduces its first solve bit for
// bit, objective and every variable.
func TestRebindRefusalLeavesModelUntouched(t *testing.T) {
	base := paddedInstance(lp.LargeModelRows + 8)
	built, err := base.Build()
	if err != nil {
		t.Fatal(err)
	}
	before, err := built.model.Solve(lp.Options{})
	if err != nil || before.Status != lp.Optimal {
		t.Fatalf("first solve: %v %v", err, before)
	}
	next := cloneInstance(base)
	next.Demands[0].MaxBytes *= 0.5
	next.Demands[1].MinBytes = 0.5
	if err := built.Rebind(next); err == nil {
		t.Fatal("Rebind accepted a cap and a new guarantee")
	}
	after, err := built.model.Solve(lp.Options{})
	if err != nil || after.Status != lp.Optimal {
		t.Fatalf("re-solve: %v %v", err, after)
	}
	if math.Float64bits(after.Objective) != math.Float64bits(before.Objective) {
		t.Fatalf("objective %v after the refusal, %v before", after.Objective, before.Objective)
	}
	for j := range before.X {
		if math.Float64bits(after.X[j]) != math.Float64bits(before.X[j]) {
			t.Fatalf("x%d = %v after the refusal, %v before", j, after.X[j], before.X[j])
		}
	}
}
