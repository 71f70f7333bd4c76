package lp

import (
	"math"
	"math/rand"
	"testing"
)

// samShapedLP builds a randomized LP with the structure of Pretium's SAM
// models: flow variables grouped per demand with a <= (remaining demand)
// row and a >= (guarantee) row, plus shared <= capacity rows. rhsScale
// perturbs every right-hand side without touching the structure.
func samShapedLP(r *rand.Rand, rhsScale float64) *Model {
	m := NewModel()
	m.SetMaximize(true)
	nDemands := 3 + r.Intn(4)
	nEdges := 3 + r.Intn(3)
	steps := 2 + r.Intn(3)
	edgeTerms := make([][]Term, nEdges*steps)
	for d := 0; d < nDemands; d++ {
		value := 0.2 + r.Float64()*2
		var dTerms []Term
		routes := 1 + r.Intn(2)
		for ri := 0; ri < routes; ri++ {
			e1, e2 := r.Intn(nEdges), r.Intn(nEdges)
			for t := 0; t < steps; t++ {
				v := m.AddVar(0, Inf, value)
				dTerms = append(dTerms, Term{Var: v, Coef: 1})
				edgeTerms[e1*steps+t] = append(edgeTerms[e1*steps+t], Term{Var: v, Coef: 1})
				if e2 != e1 {
					edgeTerms[e2*steps+t] = append(edgeTerms[e2*steps+t], Term{Var: v, Coef: 1})
				}
			}
		}
		maxB := (5 + r.Float64()*20) * rhsScale
		m.AddConstraint(LE, maxB, dTerms...)
		if r.Float64() < 0.5 {
			m.AddConstraint(GE, maxB*0.1, dTerms...)
		}
	}
	for _, terms := range edgeTerms {
		if len(terms) == 0 {
			continue
		}
		m.AddConstraint(LE, (8+r.Float64()*15)*rhsScale, terms...)
	}
	return m
}

// TestWarmStartMatchesColdSolve: for randomized SAM-shaped instances, a
// warm-started re-solve after a small RHS perturbation must reach the same
// objective and the same duals as a cold solve of the perturbed model.
func TestWarmStartMatchesColdSolve(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 120; trial++ {
		seed := r.Int63()
		base := samShapedLP(rand.New(rand.NewSource(seed)), 1)
		first, err := base.Solve(Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if first.Status != Optimal {
			t.Fatalf("trial %d: base status %v", trial, first.Status)
		}
		if first.Basis() == nil {
			t.Fatalf("trial %d: optimal solve returned nil basis", trial)
		}

		scale := 1 + (r.Float64()-0.5)*0.1 // RHS perturbed by up to ±5%
		perturbed := samShapedLP(rand.New(rand.NewSource(seed)), scale)
		cold, err := perturbed.Solve(Options{})
		if err != nil {
			t.Fatalf("trial %d: cold: %v", trial, err)
		}
		warm, err := perturbed.Solve(Options{WarmBasis: first.Basis()})
		if err != nil {
			t.Fatalf("trial %d: warm: %v", trial, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm status %v, cold %v", trial, warm.Status, cold.Status)
		}
		if cold.Status != Optimal {
			continue
		}
		relTol := 1e-6 * (1 + math.Abs(cold.Objective))
		if math.Abs(warm.Objective-cold.Objective) > relTol {
			t.Fatalf("trial %d: warm objective %v, cold %v", trial, warm.Objective, cold.Objective)
		}
		for row := range cold.Dual {
			if math.Abs(warm.Dual[row]-cold.Dual[row]) > 1e-6*(1+math.Abs(cold.Dual[row])) {
				t.Fatalf("trial %d: dual[%d] warm %v, cold %v",
					trial, row, warm.Dual[row], cold.Dual[row])
			}
		}
	}
}

// TestWarmStartFewerIterations: warm-started re-solves after a small RHS
// perturbation must pivot strictly less, in aggregate, than cold re-solves
// of the same perturbed instances (and never more on any instance by a
// meaningful margin — a warm start that is *worse* than cold would mean
// the fallback logic is broken).
func TestWarmStartFewerIterations(t *testing.T) {
	r := rand.New(rand.NewSource(99991))
	totalCold, totalWarm := 0, 0
	for trial := 0; trial < 60; trial++ {
		seed := r.Int63()
		base := samShapedLP(rand.New(rand.NewSource(seed)), 1)
		first, err := base.Solve(Options{})
		if err != nil || first.Status != Optimal {
			t.Fatalf("trial %d: %v %v", trial, err, first.Status)
		}
		perturbed := samShapedLP(rand.New(rand.NewSource(seed)), 1.02)
		cold, err := perturbed.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := perturbed.Solve(Options{WarmBasis: first.Basis()})
		if err != nil {
			t.Fatal(err)
		}
		if cold.Status != Optimal || warm.Status != Optimal {
			continue
		}
		totalCold += cold.Iterations
		totalWarm += warm.Iterations
	}
	if totalWarm >= totalCold {
		t.Fatalf("warm starts did not save pivots: warm %d >= cold %d", totalWarm, totalCold)
	}
	t.Logf("pivots over perturbed re-solves: cold %d, warm %d", totalCold, totalWarm)
}

// TestWarmStartStructuralMismatchFallsBack: a basis from a model with a
// different shape must be ignored, and the solve must still be correct.
func TestWarmStartStructuralMismatchFallsBack(t *testing.T) {
	small := NewModel()
	small.SetMaximize(true)
	x := small.AddVar(0, 5, 1)
	small.AddConstraint(LE, 3, Term{x, 1})
	sSol, err := small.Solve(Options{})
	if err != nil || sSol.Status != Optimal {
		t.Fatalf("small solve: %v %v", err, sSol.Status)
	}

	big := buildMidLP(7)
	want, err := big.Solve(Options{})
	if err != nil || want.Status != Optimal {
		t.Fatalf("cold solve: %v %v", err, want.Status)
	}
	got, err := big.Solve(Options{WarmBasis: sSol.Basis()})
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != Optimal || math.Abs(got.Objective-want.Objective) > 1e-6*(1+math.Abs(want.Objective)) {
		t.Fatalf("mismatched warm basis corrupted the solve: %v vs %v", got.Objective, want.Objective)
	}
}

// TestWarmStartAfterRelaxedInfeasibility: an infeasible solve (guarantee
// too large) still returns its terminal basis, and handing it to the
// relaxed model — the guarantee at zero, the structure unchanged — is safe:
// the basis is installed if it is primal feasible there and discarded for a
// cold start if not. The re-solve must agree with a cold solve.
func TestWarmStartAfterRelaxedInfeasibility(t *testing.T) {
	build := func(guarantee float64) *Model {
		m := NewModel()
		m.SetMaximize(true)
		a := m.AddVar(0, Inf, 2)
		b := m.AddVar(0, Inf, 1)
		m.AddConstraint(LE, 4, Term{a, 1}, Term{b, 1}) // capacity
		m.AddConstraint(GE, guarantee, Term{a, 1}, Term{b, 1})
		return m
	}
	sol, err := build(10).Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
	if sol.Basis() == nil {
		t.Fatal("infeasible solve returned nil basis")
	}
	warm, err := build(0).Solve(Options{WarmBasis: sol.Basis()})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := build(0).Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal || cold.Status != Optimal {
		t.Fatalf("statuses: warm %v cold %v", warm.Status, cold.Status)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-8 {
		t.Fatalf("objectives: warm %v cold %v", warm.Objective, cold.Objective)
	}
	if math.Abs(warm.Objective-8) > 1e-8 { // a=4 at value 2
		t.Fatalf("objective %v, want 8", warm.Objective)
	}
}

// TestOptionsDefaults: every solve runs with the documented budgets — a
// pivot budget of 2000 + 40(n+m) on a standardized problem of n columns and
// m rows, and a 1e-6 residual tolerance — so call sites hand in lp.Options{}.
func TestOptionsDefaults(t *testing.T) {
	if got := iterBudget(10, 4); got != 2000+40*14 {
		t.Errorf("iterBudget(10, 4) = %v, want %v", got, 2000+40*14)
	}
	if residualTol != 1e-6 {
		t.Errorf("residualTol = %v, want 1e-6", residualTol)
	}

	// End to end: the zero options solve to the optimum.
	m := NewModel()
	m.SetMaximize(true)
	x := m.AddVar(0, Inf, 3)
	y := m.AddVar(0, Inf, 2)
	m.AddConstraint(LE, 4, Term{x, 1}, Term{y, 1})
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-12) > 1e-8 {
		t.Fatalf("zero options: status %v objective %v, want optimal 12", sol.Status, sol.Objective)
	}
}

// TestWarmStartMatrixChangeFallsBack: the signature covers constraint
// coefficients, so a basis captured from a model with a *different matrix*
// (same shape) must be discarded — reusing its dense inverse against the
// wrong matrix would silently corrupt the solution.
func TestWarmStartMatrixChangeFallsBack(t *testing.T) {
	build := func(coef float64) *Model {
		m := NewModel()
		m.SetMaximize(true)
		x := m.AddVar(0, Inf, 3)
		y := m.AddVar(0, Inf, 2)
		m.AddConstraint(LE, 12, Term{x, coef}, Term{y, 1})
		m.AddConstraint(LE, 8, Term{x, 1}, Term{y, 1})
		return m
	}
	first, err := build(2).Solve(Options{})
	if err != nil || first.Status != Optimal {
		t.Fatalf("base: %v %v", err, first.Status)
	}
	changed := build(3)
	want, err := changed.Solve(Options{})
	if err != nil || want.Status != Optimal {
		t.Fatalf("cold: %v %v", err, want.Status)
	}
	got, err := changed.Solve(Options{WarmBasis: first.Basis()})
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != Optimal || math.Abs(got.Objective-want.Objective) > 1e-8 {
		t.Fatalf("stale-matrix warm basis corrupted the solve: %v vs %v", got.Objective, want.Objective)
	}
}

// TestWarmStartIsDeterministic: the same warm-started solve run twice
// must produce identical pivots and solutions (installing a basis must
// never mutate it, so it can be reused any number of times).
func TestWarmStartIsDeterministic(t *testing.T) {
	base := samShapedLP(rand.New(rand.NewSource(5)), 1)
	first, err := base.Solve(Options{})
	if err != nil || first.Status != Optimal {
		t.Fatalf("%v %v", err, first.Status)
	}
	b := first.Basis()
	p1 := samShapedLP(rand.New(rand.NewSource(5)), 1.03)
	p2 := samShapedLP(rand.New(rand.NewSource(5)), 1.03)
	s1, err := p1.Solve(Options{WarmBasis: b})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p2.Solve(Options{WarmBasis: b})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Iterations != s2.Iterations || s1.Objective != s2.Objective {
		t.Fatalf("nondeterministic warm solve: (%d, %v) vs (%d, %v)",
			s1.Iterations, s1.Objective, s2.Iterations, s2.Objective)
	}
}
