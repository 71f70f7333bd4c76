package lp

import (
	"math"
	"math/rand"
	"testing"
)

// buildMidLP constructs a dense-ish LP needing dozens of pivots, with
// upper-bounded variables so refactorization must respect
// nonbasic-at-upper contributions in recomputeXB.
func buildMidLP(seed int64) *Model {
	r := rand.New(rand.NewSource(seed))
	m := NewModel()
	m.SetMaximize(true)
	const n, rows = 50, 35
	vars := make([]Var, n)
	for j := range vars {
		vars[j] = m.AddVar(0, 2+r.Float64()*8, r.Float64()*10)
	}
	for i := 0; i < rows; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if r.Float64() < 0.4 {
				terms = append(terms, Term{vars[j], 0.2 + r.Float64()*3})
			}
		}
		m.AddConstraint(LE, 5+r.Float64()*30, terms...)
	}
	return m
}

// TestRefactorizationConsistency solves the same LP with aggressive and
// default refactor cadences; the optima must agree, exercising refactor()
// and recomputeXB() on every few pivots.
func TestRefactorizationConsistency(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		base, err := buildMidLP(seed).Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if base.Status != Optimal {
			t.Fatalf("seed %d: base status %v", seed, base.Status)
		}
		aggressive, err := solveEvery(3, buildMidLP(seed), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if aggressive.Status != Optimal {
			t.Fatalf("seed %d: aggressive status %v", seed, aggressive.Status)
		}
		if math.Abs(base.Objective-aggressive.Objective) > 1e-6*(1+math.Abs(base.Objective)) {
			t.Errorf("seed %d: objectives diverge: %v vs %v",
				seed, base.Objective, aggressive.Objective)
		}
	}
}

// TestRefactorWithEqualityAndFreeVars drives refactorization through a
// problem that mixes an equality row, a column free above (only that row
// pins it), and boxed columns.
func TestRefactorWithEqualityAndFreeVars(t *testing.T) {
	m := NewModel()
	m.SetMaximize(true)
	total := m.AddVar(0, Inf, -1)
	var xs []Var
	for j := 0; j < 20; j++ {
		xs = append(xs, m.AddVar(0, 3, 1+float64(j%5)))
	}
	// total equals the sum shipped (so it is pinned by equality).
	terms := []Term{{total, -1}}
	for _, x := range xs {
		terms = append(terms, Term{x, 1})
	}
	m.AddConstraint(EQ, 0, terms...)
	for i := 0; i < 10; i++ {
		var row []Term
		for j := i; j < len(xs); j += 2 {
			row = append(row, Term{xs[j], 1})
		}
		m.AddConstraint(LE, 8, row...)
	}
	sol, err := solveEvery(2, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	// The equality must hold at the optimum.
	sum := 0.0
	for _, x := range xs {
		sum += sol.X[x]
	}
	if math.Abs(sol.X[total]-sum) > 1e-6 {
		t.Errorf("equality violated after refactors: total=%v sum=%v", sol.X[total], sum)
	}
}
