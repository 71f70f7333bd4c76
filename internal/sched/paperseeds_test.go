package sched

import (
	"math"
	"testing"

	"pretium/internal/lp"
)

// dualBound evaluates the Lagrangian bound the duals y certify for the
// maximization model m: Σ y·b plus, per variable, its reduced cost
// c_j − y·A_j at whichever bound maximizes it. The reduced costs are
// recomputed here from the rows, so the bound holds for any y; a wrong-signed
// dual or a positive reduced cost on an unbounded variable is reported as
// dual infeasibility (relative to the largest objective coefficient)
// instead of being trusted.
func dualBound(m *lp.Model, y []float64) (bound, infeas float64) {
	d := make([]float64, m.NumVars())
	scale := 1.0
	for j := range d {
		d[j] = m.Obj(lp.Var(j))
		scale = math.Max(scale, math.Abs(d[j]))
	}
	for i := 0; i < m.NumRows(); i++ {
		sense, rhs, terms := m.Constraint(lp.Row(i))
		switch {
		case sense == lp.LE && y[i] < 0, sense == lp.GE && y[i] > 0:
			infeas = math.Max(infeas, math.Abs(y[i])/scale)
			continue // a wrong-signed multiplier certifies nothing; drop it
		}
		bound += y[i] * rhs
		for _, t := range terms {
			d[t.Var] -= y[i] * t.Coef
		}
	}
	for j, dj := range d {
		lo, up := m.Bounds(lp.Var(j))
		switch {
		case dj > 0 && !math.IsInf(up, 1):
			bound += dj * up
		case dj < 0 && !math.IsInf(lo, -1):
			bound += dj * lo
		default:
			infeas = math.Max(infeas, math.Abs(dj)/scale)
		}
	}
	return bound, infeas
}

// TestPaperColdSeeds solves five instances of the paper-scale recipe cold.
// Every one must end Optimal and not Suspect, with its objective meeting a
// bound certified by its own duals — an oracle that needs no second solver
// and that a solve which gave up cannot supply. (At the parent of the
// logical crash, seeds 44 and 45 ended in a singular refactorization.)
func TestPaperColdSeeds(t *testing.T) {
	if testing.Short() || raceEnabled {
		// One goroutine, 45 s of floating point: the race detector has
		// nothing to find here and makes it eight minutes.
		t.Skip("five paper-scale cold solves")
	}
	paper := benchScales[len(benchScales)-1]
	for seed := int64(42); seed <= 46; seed++ {
		built, err := benchInstance(paper, seed).Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !built.Implicit() {
			t.Fatalf("seed %d: Build made the paper recipe explicit", seed)
		}
		var stats lp.SolveStats
		sol, err := built.model.Solve(lp.Options{Presolve: true, Stats: &stats})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sol.Status != lp.Optimal || sol.Suspect {
			t.Errorf("seed %d: status %v, suspect %v after %d pivots", seed, sol.Status, sol.Suspect, sol.Iterations)
			continue
		}
		bound, infeas := dualBound(built.model, sol.Dual)
		gap := (bound - sol.Objective) / (1 + math.Abs(sol.Objective))
		t.Logf("seed %d: objective %.9g, dual bound %.9g (gap %.2g, dual infeasibility %.2g), %d pivots, %d refactorizations, %d artificials, %d recoveries",
			seed, sol.Objective, bound, gap, infeas, sol.Iterations, sol.Refactors, stats.Artificials, stats.Recoveries)
		if infeas > 1e-7 || math.Abs(gap) > 1e-7 {
			t.Errorf("seed %d: objective %v against a dual bound of %v (dual infeasibility %g)", seed, sol.Objective, bound, infeas)
		}
	}
}
