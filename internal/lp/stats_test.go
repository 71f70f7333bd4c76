package lp

import "testing"

// statsModel builds a small LP with a nontrivial optimum:
// max x+2y s.t. x+y<=4, y<=3, x,y>=0.
func statsModel() (*Model, Var, Var) {
	m := NewModel()
	m.SetMaximize(true)
	x := m.AddVar(0, Inf, 1)
	y := m.AddVar(0, Inf, 2)
	m.AddConstraint(LE, 4, Term{x, 1}, Term{y, 1})
	m.AddConstraint(LE, 3, Term{y, 1})
	return m, x, y
}

func TestSolveStatsAccumulates(t *testing.T) {
	m, _, _ := statsModel()
	var stats SolveStats
	sol, err := m.Solve(Options{Stats: &stats})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v %v", sol.Status, err)
	}
	if stats.Solves != 1 {
		t.Fatalf("Solves = %d, want 1", stats.Solves)
	}
	if stats.Iterations != sol.Iterations {
		t.Fatalf("Iterations = %d, want %d", stats.Iterations, sol.Iterations)
	}
	if stats.WarmStarts != 0 || stats.TimeBudgetHits != 0 || stats.IterLimitHits != 0 {
		t.Fatalf("unexpected nonzero failure counters: %+v", stats)
	}

	// A tight refactorization cadence must show up in the counter (a cold
	// start from the identity slack basis legitimately reports zero).
	var tight SolveStats
	if _, err := solveEvery(1, m, Options{Stats: &tight}); err != nil {
		t.Fatalf("tight-cadence solve: %v", err)
	}
	if tight.Refactorizations < 1 {
		t.Fatalf("Refactorizations = %d at a cadence of 1, want >= 1", tight.Refactorizations)
	}

	// A second solve accumulates into the same struct.
	if _, err := m.Solve(Options{Stats: &stats}); err != nil {
		t.Fatalf("re-solve: %v", err)
	}
	if stats.Solves != 2 {
		t.Fatalf("Solves = %d after second solve, want 2", stats.Solves)
	}

	// Only a solve through the reduction pass counts as presolved.
	if _, err := m.Solve(Options{Presolve: true, Stats: &stats}); err != nil {
		t.Fatalf("presolved solve: %v", err)
	}
	if stats.Presolved != 1 {
		t.Fatalf("Presolved = %d after two plain solves and one presolved, want 1", stats.Presolved)
	}
}

func TestSolveStatsPhaseTimings(t *testing.T) {
	// The per-phase clocks must tick on a solve that pivots: pricing runs
	// every pivot and FTRAN computes every tableau column, so both are
	// guaranteed nonzero; BTRAN ticks with the per-pivot duals.
	m, _, _ := statsModel()
	var stats SolveStats
	sol, err := m.Solve(Options{Stats: &stats})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v %v", sol.Status, err)
	}
	if sol.Iterations == 0 {
		t.Fatalf("statsModel solved without a pivot; the timing assertions need one")
	}
	if ph := stats.Timings; ph.PricingNs <= 0 || ph.FtranNs <= 0 || ph.BtranNs <= 0 {
		t.Fatalf("phase timings did not tick: %+v", ph)
	}
	// The pivot-row clock belongs to devex: a small model prices without
	// it and never starts the timer; forced onto devex, it ticks.
	if stats.Timings.RowNs != 0 {
		t.Fatalf("row clock ticked on a Dantzig solve: %+v", stats.Timings)
	}
	var dstats SolveStats
	dvx, err := solveWith(pricingDevex, m, Options{Stats: &dstats})
	if err != nil || dvx.Status != Optimal {
		t.Fatalf("devex solve: %v %v", dvx.Status, err)
	}
	if dstats.Timings.RowNs <= 0 {
		t.Fatalf("row clock did not tick on a devex solve of %d pivots: %+v", dvx.Iterations, dstats.Timings)
	}
	// A forced refactorization cadence must tick the refactor clock.
	var tight SolveStats
	if _, err := solveEvery(1, m, Options{Stats: &tight}); err != nil {
		t.Fatalf("tight-cadence solve: %v", err)
	}
	if tight.Refactorizations >= 1 && tight.Timings.RefactorNs <= 0 {
		t.Fatalf("refactor clock did not tick across %d refactorizations: %+v",
			tight.Refactorizations, tight.Timings)
	}
}

// TestSolveStatsPresolveReused: a presolved re-solve after an objective-only
// edit reuses the last reduction and counts it; one after a right-hand-side
// edit presolves again and does not.
func TestSolveStatsPresolveReused(t *testing.T) {
	m, x, _ := statsModel()
	solve := func() SolveStats {
		var stats SolveStats
		if sol, err := m.Solve(Options{Presolve: true, Stats: &stats}); err != nil || sol.Status != Optimal {
			t.Fatalf("presolved solve: %v %v", err, sol.Status)
		}
		return stats
	}
	if s := solve(); s.Presolved != 1 || s.PresolveReused != 0 {
		t.Fatalf("first solve: presolved %d, reused %d; want 1, 0", s.Presolved, s.PresolveReused)
	}
	m.SetObj(x, 1.5)
	if s := solve(); s.PresolveReused != 1 {
		t.Fatalf("objective-only re-solve: reused %d, want 1", s.PresolveReused)
	}
	m.SetRHS(0, 5)
	if s := solve(); s.Presolved != 1 || s.PresolveReused != 0 {
		t.Fatalf("re-solve after SetRHS: presolved %d, reused %d; want 1, 0", s.Presolved, s.PresolveReused)
	}
}

func TestSolveStatsWarmStart(t *testing.T) {
	m, _, _ := statsModel()
	sol, err := m.Solve(Options{})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("cold solve: %v %v", sol.Status, err)
	}
	m.SetRHS(0, 5) // RHS perturbation: classic warm-start case
	var stats SolveStats
	sol2, err := m.Solve(Options{WarmBasis: sol.Basis(), Stats: &stats})
	if err != nil || sol2.Status != Optimal {
		t.Fatalf("warm solve: %v %v", sol2.Status, err)
	}
	if stats.WarmStarts != 1 {
		t.Fatalf("WarmStarts = %d, want 1", stats.WarmStarts)
	}
}

func TestSolveStatsIterLimit(t *testing.T) {
	m, _, _ := statsModel()
	var stats SolveStats
	var sol *Solution
	var err error
	withIterBudget(1, func() { sol, err = m.Solve(Options{Stats: &stats}) })
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if sol.Status != IterLimit {
		t.Fatalf("status = %v, want iteration-limit", sol.Status)
	}
	if stats.IterLimitHits != 1 {
		t.Fatalf("IterLimitHits = %d, want 1", stats.IterLimitHits)
	}
}
