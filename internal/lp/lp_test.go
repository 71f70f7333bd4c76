package lp

import (
	"math"
	"math/rand"
	"testing"
)

func solveOK(t *testing.T, m *Model) *Solution {
	t.Helper()
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	return sol
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// activity evaluates the row terms under the solution.
func activity(sol *Solution, terms []Term) float64 {
	v := 0.0
	for _, t := range terms {
		v += t.Coef * sol.X[t.Var]
	}
	return v
}

func TestSimpleMax(t *testing.T) {
	// max 3x + 2y  s.t. x + y <= 4, x + 3y <= 6, x,y >= 0.
	// Optimum at (4, 0) with objective 12.
	m := NewModel()
	m.SetMaximize(true)
	x := m.AddVar(0, Inf, 3)
	y := m.AddVar(0, Inf, 2)
	m.AddConstraint(LE, 4, Term{x, 1}, Term{y, 1})
	m.AddConstraint(LE, 6, Term{x, 1}, Term{y, 3})
	sol := solveOK(t, m)
	if !approx(sol.Objective, 12, 1e-8) {
		t.Errorf("objective = %v, want 12", sol.Objective)
	}
	if !approx(sol.X[x], 4, 1e-8) || !approx(sol.X[y], 0, 1e-8) {
		t.Errorf("X = %v, want [4 0]", sol.X)
	}
}

func TestSimpleMin(t *testing.T) {
	// min 2x + 3y  s.t. x + y >= 10, x <= 6, y <= 8.
	// Optimum: x=6, y=4, objective 24.
	m := NewModel()
	x := m.AddVar(0, 6, 2)
	y := m.AddVar(0, 8, 3)
	m.AddConstraint(GE, 10, Term{x, 1}, Term{y, 1})
	sol := solveOK(t, m)
	if !approx(sol.Objective, 24, 1e-8) {
		t.Errorf("objective = %v, want 24", sol.Objective)
	}
	if !approx(sol.X[x], 6, 1e-8) || !approx(sol.X[y], 4, 1e-8) {
		t.Errorf("X = %v, want [6 4]", sol.X)
	}
}

func TestEquality(t *testing.T) {
	// max x + y  s.t. x + 2y = 8, x <= 4. Optimum: x=4, y=2, obj 6.
	m := NewModel()
	m.SetMaximize(true)
	x := m.AddVar(0, 4, 1)
	y := m.AddVar(0, Inf, 1)
	m.AddConstraint(EQ, 8, Term{x, 1}, Term{y, 2})
	sol := solveOK(t, m)
	if !approx(sol.Objective, 6, 1e-8) {
		t.Errorf("objective = %v, want 6", sol.Objective)
	}
	if !approx(sol.X[x]+2*sol.X[y], 8, 1e-8) {
		t.Errorf("equality violated: %v", sol.X)
	}
}

func TestNegativeLowerBound(t *testing.T) {
	// min x  s.t. x >= -5 (bound), x + y = 0, y <= 3 → x = -3.
	m := NewModel()
	x := m.AddVar(-5, Inf, 1)
	y := m.AddVar(0, 3, 0)
	m.AddConstraint(EQ, 0, Term{x, 1}, Term{y, 1})
	sol := solveOK(t, m)
	if !approx(sol.X[x], -3, 1e-8) {
		t.Errorf("x = %v, want -3", sol.X[x])
	}
}

func TestInfeasible(t *testing.T) {
	m := NewModel()
	x := m.AddVar(0, Inf, 1)
	m.AddConstraint(LE, 1, Term{x, 1})
	m.AddConstraint(GE, 2, Term{x, 1})
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	m := NewModel()
	m.SetMaximize(true)
	x := m.AddVar(0, Inf, 1)
	y := m.AddVar(0, Inf, 0)
	m.AddConstraint(GE, 0, Term{x, 1}, Term{y, -1})
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestFixedVariable(t *testing.T) {
	m := NewModel()
	m.SetMaximize(true)
	x := m.AddVar(3, 3, 1) // fixed at 3
	y := m.AddVar(0, Inf, 1)
	m.AddConstraint(LE, 10, Term{x, 1}, Term{y, 1})
	sol := solveOK(t, m)
	if !approx(sol.X[x], 3, 1e-9) || !approx(sol.X[y], 7, 1e-8) {
		t.Errorf("X = %v, want [3 7]", sol.X)
	}
}

func TestDualsOfCapacityRows(t *testing.T) {
	// max 5a + 3b  s.t. a + b <= 10 (binding), a <= 4 (binding).
	// Optimum a=4, b=6, obj 38. Duals: capacity row 3, a-row 2.
	m := NewModel()
	m.SetMaximize(true)
	a := m.AddVar(0, Inf, 5)
	b := m.AddVar(0, Inf, 3)
	cap := m.AddConstraint(LE, 10, Term{a, 1}, Term{b, 1})
	lim := m.AddConstraint(LE, 4, Term{a, 1})
	sol := solveOK(t, m)
	if !approx(sol.Objective, 38, 1e-8) {
		t.Fatalf("objective = %v, want 38", sol.Objective)
	}
	if !approx(sol.Dual[cap], 3, 1e-8) {
		t.Errorf("dual(cap) = %v, want 3", sol.Dual[cap])
	}
	if !approx(sol.Dual[lim], 2, 1e-8) {
		t.Errorf("dual(lim) = %v, want 2", sol.Dual[lim])
	}
}

func TestDualSlackRow(t *testing.T) {
	// A non-binding row must have zero dual (complementary slackness).
	m := NewModel()
	m.SetMaximize(true)
	x := m.AddVar(0, 2, 1)
	loose := m.AddConstraint(LE, 100, Term{x, 1})
	sol := solveOK(t, m)
	if !approx(sol.Dual[loose], 0, 1e-8) {
		t.Errorf("dual of slack row = %v, want 0", sol.Dual[loose])
	}
	if !approx(sol.X[x], 2, 1e-9) {
		t.Errorf("x = %v, want 2", sol.X[x])
	}
}

func TestNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -3  (i.e. x >= 3).
	m := NewModel()
	x := m.AddVar(0, Inf, 1)
	m.AddConstraint(LE, -3, Term{x, -1})
	sol := solveOK(t, m)
	if !approx(sol.X[x], 3, 1e-8) {
		t.Errorf("x = %v, want 3", sol.X[x])
	}
}

func TestDuplicateTermsMerged(t *testing.T) {
	m := NewModel()
	m.SetMaximize(true)
	x := m.AddVar(0, Inf, 1)
	m.AddConstraint(LE, 6, Term{x, 1}, Term{x, 2}) // 3x <= 6
	sol := solveOK(t, m)
	if !approx(sol.X[x], 2, 1e-8) {
		t.Errorf("x = %v, want 2", sol.X[x])
	}
}

func TestBealeCyclingExample(t *testing.T) {
	// Beale's classic cycling LP; Bland fallback must terminate.
	// min -0.75x4 + 150x5 - 0.02x6 + 6x7
	// s.t. 0.25x4 - 60x5 - 0.04x6 + 9x7 <= 0
	//      0.5x4  - 90x5 - 0.02x6 + 3x7 <= 0
	//      x6 <= 1. Optimum objective -0.05.
	m := NewModel()
	x4 := m.AddVar(0, Inf, -0.75)
	x5 := m.AddVar(0, Inf, 150)
	x6 := m.AddVar(0, 1, -0.02)
	x7 := m.AddVar(0, Inf, 6)
	m.AddConstraint(LE, 0, Term{x4, 0.25}, Term{x5, -60}, Term{x6, -0.04}, Term{x7, 9})
	m.AddConstraint(LE, 0, Term{x4, 0.5}, Term{x5, -90}, Term{x6, -0.02}, Term{x7, 3})
	sol := solveOK(t, m)
	if !approx(sol.Objective, -0.05, 1e-8) {
		t.Errorf("objective = %v, want -0.05", sol.Objective)
	}
}

func TestDegenerateRedundantRows(t *testing.T) {
	// Redundant equalities leave an artificial basic at zero; phase 2
	// must still succeed.
	m := NewModel()
	m.SetMaximize(true)
	x := m.AddVar(0, Inf, 1)
	y := m.AddVar(0, Inf, 1)
	m.AddConstraint(EQ, 4, Term{x, 1}, Term{y, 1})
	m.AddConstraint(EQ, 8, Term{x, 2}, Term{y, 2}) // redundant copy
	m.AddConstraint(LE, 3, Term{x, 1})
	sol := solveOK(t, m)
	if !approx(sol.Objective, 4, 1e-8) {
		t.Errorf("objective = %v, want 4", sol.Objective)
	}
}

func TestIterationLimit(t *testing.T) {
	m := NewModel()
	m.SetMaximize(true)
	x := m.AddVar(0, Inf, 1)
	y := m.AddVar(0, Inf, 1)
	m.AddConstraint(LE, 4, Term{x, 1}, Term{y, 1})
	var sol *Solution
	var err error
	withIterBudget(1, func() { sol, err = m.Solve(Options{}) })
	if err != nil {
		t.Fatal(err)
	}
	// Either it solved in one pivot or hit the limit; both acceptable,
	// but the status must be truthful.
	if sol.Status == Optimal && !approx(sol.Objective, 4, 1e-8) {
		t.Errorf("claimed optimal with objective %v", sol.Objective)
	}
}

func TestSetObjReSolve(t *testing.T) {
	m := NewModel()
	m.SetMaximize(true)
	x := m.AddVar(0, 10, 1)
	y := m.AddVar(0, 10, 2)
	m.AddConstraint(LE, 10, Term{x, 1}, Term{y, 1})
	sol := solveOK(t, m)
	if !approx(sol.Objective, 20, 1e-8) {
		t.Fatalf("first solve = %v", sol.Objective)
	}
	m.SetObj(x, 5)
	sol = solveOK(t, m)
	if !approx(sol.Objective, 50, 1e-8) {
		t.Errorf("after SetObj = %v, want 50", sol.Objective)
	}
}

func TestVarAccessors(t *testing.T) {
	m := NewModel()
	v := m.AddVar(1, 2, 3)
	lo, up := m.Bounds(v)
	if lo != 1 || up != 2 {
		t.Errorf("Bounds = %v %v", lo, up)
	}
	if m.NumVars() != 1 || m.NumRows() != 0 {
		t.Errorf("counts wrong")
	}
	if m.Obj(v) != 3 {
		t.Errorf("Obj = %v", m.Obj(v))
	}
	r := m.AddConstraint(GE, 4, Term{v, 2}, Term{v, 3})
	sense, rhs, terms := m.Constraint(r)
	if sense != GE || rhs != 4 || len(terms) != 1 || terms[0] != (Term{v, 5}) {
		t.Errorf("Constraint = %v %v %v", sense, rhs, terms)
	}
}

// TestAddVarPanicsOnBadBounds: AddVar takes only a finite lower bound no
// greater than the upper one.
func TestAddVarPanicsOnBadBounds(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct{ lo, up float64 }{
		{2, 1}, {math.Inf(-1), 1}, {math.Inf(-1), Inf}, {Inf, Inf}, {nan, 1}, {0, nan},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds [%v, %v]: no panic", c.lo, c.up)
				}
			}()
			NewModel().AddVar(c.lo, c.up, 0)
		}()
	}
}

func TestSenseString(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Error("sense strings wrong")
	}
	if Sense(9).String() != "?" {
		t.Error("unknown sense string wrong")
	}
	for _, s := range []Status{Optimal, Infeasible, Unbounded, IterLimit, Status(9)} {
		if s.String() == "" {
			t.Error("empty status string")
		}
	}
}

// randomBoundedLP builds a random feasible, bounded maximization LP:
// box-bounded variables, <= rows with mixed-sign coefficients and rhs
// large enough that x = 0 can be infeasible only via >= rows we avoid.
func randomBoundedLP(r *rand.Rand) (*Model, []Var, []Row, [][]Term, []float64) {
	n := 2 + r.Intn(5)
	mm := 1 + r.Intn(5)
	m := NewModel()
	m.SetMaximize(true)
	vars := make([]Var, n)
	for j := 0; j < n; j++ {
		up := 1 + r.Float64()*9
		c := r.Float64()*10 - 2
		vars[j] = m.AddVar(0, up, c)
	}
	rows := make([]Row, mm)
	rowTerms := make([][]Term, mm)
	rhs := make([]float64, mm)
	for i := 0; i < mm; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if r.Float64() < 0.6 {
				terms = append(terms, Term{vars[j], r.Float64()*4 - 1})
			}
		}
		b := r.Float64() * 15
		rows[i] = m.AddConstraint(LE, b, terms...)
		rowTerms[i] = terms
		rhs[i] = b
	}
	return m, vars, rows, rowTerms, rhs
}

// TestRandomLPDualityCertificate checks, on many random LPs, that the
// reported solution is primal feasible and that the reported duals form an
// optimality certificate: y >= 0, the induced bound-duals close the gap,
// and strong duality holds. This verifies optimality without trusting the
// solver's own status.
func TestRandomLPDualityCertificate(t *testing.T) {
	r := rand.New(rand.NewSource(20160822)) // SIGCOMM'16 week
	const tol = 1e-6
	for trial := 0; trial < 400; trial++ {
		m, vars, rows, rowTerms, rhs := randomBoundedLP(r)
		sol, err := m.Solve(Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != Optimal {
			// x = 0 is feasible whenever all rhs >= 0; with some rhs
			// possibly < 0 the LP can be infeasible. Accept infeasible
			// only if some rhs < 0 with all-nonneg row coefficients is
			// plausible — here rhs >= 0 always, so demand optimal.
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		// Primal feasibility.
		for j, v := range vars {
			lo, up := m.Bounds(v)
			if sol.X[v] < lo-tol || sol.X[v] > up+tol {
				t.Fatalf("trial %d: var %d out of bounds: %v", trial, j, sol.X[v])
			}
		}
		for i, terms := range rowTerms {
			lhs := activity(sol, terms)
			if lhs > rhs[i]+tol {
				t.Fatalf("trial %d: row %d violated: %v > %v", trial, i, lhs, rhs[i])
			}
		}
		// Dual certificate: y_i >= 0 for <= rows of a max problem; the
		// bound dual w_j = max(0, c_j - (A^T y)_j); gap must vanish.
		aty := make(map[Var]float64)
		dualObj := 0.0
		for i, row := range rows {
			y := sol.Dual[row]
			if y < -tol {
				t.Fatalf("trial %d: negative dual %v on <= row", trial, y)
			}
			dualObj += y * rhs[i]
			for _, tm := range rowTerms[i] {
				aty[tm.Var] += y * tm.Coef
			}
		}
		for _, v := range vars {
			cj := m.Obj(v)
			w := cj - aty[v]
			if w > 0 {
				_, up := m.Bounds(v)
				dualObj += w * up
			}
		}
		if math.Abs(dualObj-sol.Objective) > 1e-5*(1+math.Abs(sol.Objective)) {
			t.Fatalf("trial %d: duality gap: primal %v dual %v", trial, sol.Objective, dualObj)
		}
	}
}

// TestTransportationProblem solves a classic balanced transportation LP
// with equality constraints and verifies the known optimum.
func TestTransportationProblem(t *testing.T) {
	// Supplies: s1=20, s2=30; demands: d1=10, d2=25, d3=15.
	// Costs: [[2 3 1], [5 4 8]]. Known optimum cost: 20 units from s1:
	// ship s1->d3 15 @1, s1->d1 5 @2, s2->d1 5 @5, s2->d2 25 @4 = 150.
	m := NewModel()
	costs := [2][3]float64{{2, 3, 1}, {5, 4, 8}}
	supply := []float64{20, 30}
	demand := []float64{10, 25, 15}
	var x [2][3]Var
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			x[i][j] = m.AddVar(0, Inf, costs[i][j])
		}
	}
	for i := 0; i < 2; i++ {
		m.AddConstraint(EQ, supply[i], Term{x[i][0], 1}, Term{x[i][1], 1}, Term{x[i][2], 1})
	}
	for j := 0; j < 3; j++ {
		m.AddConstraint(EQ, demand[j], Term{x[0][j], 1}, Term{x[1][j], 1})
	}
	sol := solveOK(t, m)
	if !approx(sol.Objective, 150, 1e-7) {
		t.Errorf("objective = %v, want 150", sol.Objective)
	}
}

// TestLargeRandomStress exercises refactorization (> 128 pivots) on a
// mid-size LP and re-checks feasibility of the result.
func TestLargeRandomStress(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	n, mm := 60, 45
	m := NewModel()
	m.SetMaximize(true)
	vars := make([]Var, n)
	for j := range vars {
		vars[j] = m.AddVar(0, 5+r.Float64()*10, r.Float64()*10)
	}
	type rowRec struct {
		terms []Term
		rhs   float64
	}
	var recs []rowRec
	for i := 0; i < mm; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if r.Float64() < 0.3 {
				terms = append(terms, Term{vars[j], r.Float64() * 3})
			}
		}
		b := 10 + r.Float64()*40
		m.AddConstraint(LE, b, terms...)
		recs = append(recs, rowRec{terms, b})
	}
	sol := solveOK(t, m)
	for i, rec := range recs {
		if activity(sol, rec.terms) > rec.rhs+1e-6 {
			t.Fatalf("row %d violated", i)
		}
	}
	if sol.Objective <= 0 {
		t.Errorf("objective = %v, expected positive", sol.Objective)
	}
}

func TestRedCostsKnownLP(t *testing.T) {
	// max 3x + 2y st x + y <= 4, x + 3y <= 6. Optimum (4, 0): only the
	// first row binds, dual 3. Reduced cost of y = 2 - 3 = -1 (raising y
	// from its bound loses 1/unit); x is basic with reduced cost 0.
	m := NewModel()
	m.SetMaximize(true)
	x := m.AddVar(0, Inf, 3)
	y := m.AddVar(0, Inf, 2)
	m.AddConstraint(LE, 4, Term{x, 1}, Term{y, 1})
	m.AddConstraint(LE, 6, Term{x, 1}, Term{y, 3})
	rc := reducedCosts(m, solveOK(t, m).Dual)
	if !approx(rc[x], 0, 1e-8) {
		t.Errorf("rc(x) = %v, want 0", rc[x])
	}
	if !approx(rc[y], -1, 1e-8) {
		t.Errorf("rc(y) = %v, want -1", rc[y])
	}
}

// Property: complementary slackness between primal values and reduced
// costs on random bounded maximization LPs — at-lower-bound variables
// have rc <= 0, at-upper-bound have rc >= 0, interior have rc ~ 0.
func TestRedCostComplementarityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	const tol = 1e-6
	for trial := 0; trial < 200; trial++ {
		m, vars, _, _, _ := randomBoundedLP(r)
		sol, err := m.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: %v", trial, sol.Status)
		}
		rcs := reducedCosts(m, sol.Dual)
		for _, v := range vars {
			lo, up := m.Bounds(v)
			x, rc := sol.X[v], rcs[v]
			switch {
			case x <= lo+tol && x >= up-tol:
				// Degenerate interval; anything goes.
			case x <= lo+tol:
				if rc > tol {
					t.Fatalf("trial %d: at lower bound with rc %v > 0", trial, rc)
				}
			case x >= up-tol:
				if rc < -tol {
					t.Fatalf("trial %d: at upper bound with rc %v < 0", trial, rc)
				}
			default:
				if math.Abs(rc) > 1e-5 {
					t.Fatalf("trial %d: interior variable with rc %v", trial, rc)
				}
			}
		}
	}
}
