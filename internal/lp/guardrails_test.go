package lp

import (
	"errors"
	"math/rand"
	"testing"
)

// randomDenseModel builds a feasible random LP big enough that a one-pivot
// budget cannot finish it.
func randomDenseModel(n, m int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	md := NewModel()
	md.SetMaximize(true)
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = md.AddVar(0, Inf, rng.Float64())
	}
	for j := 0; j < m; j++ {
		terms := make([]Term, n)
		for i, v := range vars {
			terms[i] = Term{v, 0.1 + rng.Float64()}
		}
		md.AddConstraint(LE, 5+10*rng.Float64(), terms...)
	}
	return md
}

func TestPivotBudgetReturnsIterLimit(t *testing.T) {
	m := randomDenseModel(60, 60, 7)
	var sol *Solution
	var err error
	withIterBudget(1, func() { sol, err = m.Solve(Options{}) })
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != IterLimit {
		t.Fatalf("status = %v, want IterLimit", sol.Status)
	}
	if !errors.Is(sol.Status.Err(), ErrIterLimit) {
		t.Errorf("Err() = %v, want ErrIterLimit", sol.Status.Err())
	}
	// No terminal basis should be captured from an aborted solve: warm
	// starting the next solve from it would be starting from garbage.
	if sol.Basis() != nil {
		t.Error("aborted solve captured a basis")
	}
	// The default budget solves the same model to optimality.
	sol, err = m.Solve(Options{})
	if err != nil {
		t.Fatalf("Solve with the default budget: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want Optimal under the default budget", sol.Status)
	}
}

func TestStatusErrTaxonomy(t *testing.T) {
	cases := []struct {
		status Status
		want   error
	}{
		{Optimal, nil},
		{IterLimit, ErrIterLimit},
		{Infeasible, ErrInfeasible},
		{Unbounded, ErrUnbounded},
		{Singular, ErrSingular},
	}
	for _, c := range cases {
		if got := c.status.Err(); !errors.Is(got, c.want) {
			t.Errorf("%v.Err() = %v, want %v", c.status, got, c.want)
		}
	}
	if got := Singular.String(); got != "singular-basis" {
		t.Errorf("Singular.String() = %q", got)
	}
}

func TestResidualHealthyOnCleanSolve(t *testing.T) {
	m := randomDenseModel(20, 15, 11)
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Suspect {
		t.Errorf("clean solve flagged suspect (residual %g)", sol.Residual)
	}
	if sol.Residual > 1e-6 {
		t.Errorf("residual %g, want <= 1e-6", sol.Residual)
	}
	// A paranoid tolerance flags the same solution as suspect — the
	// health check is wired through, not vacuously true.
	old := residualTol
	residualTol = 1e-300
	defer func() { residualTol = old }()
	sol, err = m.Solve(Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Residual > 0 && !sol.Suspect {
		t.Error("nonzero residual not flagged under a zero tolerance")
	}
}
