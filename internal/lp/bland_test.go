package lp

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

// pickTally is what checkPicks has seen so far.
type pickTally struct {
	Picks      int64 // Bland picks checked against a scan from zero
	ScanPriced int64 // columns those scans from zero priced
	Layouts    int64 // row-copy layouts checked
}

// checkPicks hooks every pick optimize makes until the test ends: a Bland
// pick must equal a scan from zero of the state it was priced from, and
// with layout set, every row of the row copy must hold its nonbasic
// columns' entries before its basic ones wherever the solve has a copy
// (optimize prices once after every pivot, so every pivot's layout is
// checked). It returns a reader of the tally.
func checkPicks(t testing.TB, layout bool) func() pickTally {
	var picks, scanned, layouts atomic.Int64
	old := pickHook
	pickHook = func(v state, bland bool, q int, costs, y []float64, skipArt bool) {
		st := &v
		if layout && st.rowPtr != nil {
			layouts.Add(1)
			if err := checkLayout(st); err != nil {
				t.Error(err)
			}
		}
		if !bland {
			return
		}
		want, priced := blandScan(st, costs, y, skipArt)
		picks.Add(1)
		scanned.Add(priced)
		if q != want {
			t.Errorf("pivot %d: Bland's rule resumed to column %d, a scan from zero picks %d", st.iters, q, want)
		}
	}
	t.Cleanup(func() { pickHook = old })
	return func() pickTally { return pickTally{picks.Load(), scanned.Load(), layouts.Load()} }
}

// blandScan is Bland's rule as a scan of every column from zero: the pick,
// and how many columns it priced.
func blandScan(st *state, costs, y []float64, skipArt bool) (q int, priced int64) {
	for j := 0; j < st.std.n; j++ {
		if st.basePos[j] != 0 || (skipArt && st.std.art[j]) {
			continue
		}
		priced++
		d := 0.0
		if y == nil {
			d = st.dRed[j]
		} else {
			d = st.reducedCost(costs, y, j)
		}
		if viol, _ := st.violation(j, d); viol != 0 {
			return j, priced
		}
	}
	return -1, priced
}

// checkLayout reports a row-copy entry in the wrong segment for its
// column's basePos, or a row that is no longer its matrix row reordered.
func checkLayout(st *state) error {
	seen := make([]int, st.std.n)
	for i := 0; i < st.std.m; i++ {
		for p := st.rowPtr[i]; p < st.rowPtr[i+1]; p++ {
			j := int(st.rowCol[p])
			if basic := st.basePos[j] > 0; basic != (p >= st.rowMid[i]) {
				return fmt.Errorf("pivot %d, row %d: column %d (basePos %d) in the wrong segment", st.iters, i, j, st.basePos[j])
			}
			if seen[j] == i+1 {
				return fmt.Errorf("pivot %d, row %d: column %d twice", st.iters, i, j)
			}
			seen[j] = i + 1
			own := false
			for _, e := range st.std.cols[j] {
				own = own || (e.row == i && e.val == st.rowVal[p])
			}
			if !own {
				return fmt.Errorf("pivot %d, row %d: column %d holds %g, not its own entry", st.iters, i, j, st.rowVal[p])
			}
		}
	}
	return nil
}

// TestBlandResumeMatchesScan checks every Bland pick against a scan from
// zero, under both pricing rules, over the differential corpus's
// SAM-shaped instances (cold, and warm from the cold basis) and the ≥-row
// staircases, whose zero right-hand sides stall the simplex into long
// Bland episodes. Resuming from the last pick must also price under half
// the columns the scans from zero price (a fifth and a tenth, measured).
func TestBlandResumeMatchesScan(t *testing.T) {
	seen := checkPicks(t, false)
	for _, rule := range []pricingRule{pricingDantzig, pricingDevex} {
		before := seen()
		var stats SolveStats
		solve := func(m *Model, opts Options, ctx string) *Solution {
			opts.Stats = &stats
			sol, err := solveWith(rule, m, opts)
			if err != nil || sol.Status != Optimal {
				t.Fatalf("%s, %s: %v %v", rule, ctx, sol.Status, err)
			}
			return sol
		}
		for trial := 0; trial < 40; trial++ {
			seed := int64(5000 + trial)
			cold := solve(samShapedLP(rand.New(rand.NewSource(seed)), 1.0), Options{}, "SAM-shaped, cold")
			solve(samShapedLP(rand.New(rand.NewSource(seed)), 1.07), Options{WarmBasis: cold.Basis()}, "SAM-shaped, warm")
		}
		for _, n := range []int{200, 600, 1500} {
			solve(crashStaircase(int64(70+n), n, 0, false).m, Options{}, fmt.Sprintf("staircase %d", n))
		}
		got := seen()
		picks, scanned := got.Picks-before.Picks, got.ScanPriced-before.ScanPriced
		t.Logf("%s: %d Bland picks priced %d columns; scans from zero would have priced %d", rule, stats.BlandPicks, stats.BlandPriced, scanned)
		if picks == 0 || int64(stats.BlandPicks) != picks {
			t.Errorf("%s: %d Bland picks checked, %d counted", rule, picks, stats.BlandPicks)
		}
		if 2*int64(stats.BlandPriced) >= scanned {
			t.Errorf("%s: Bland's rule priced %d columns, scans from zero %d", rule, stats.BlandPriced, scanned)
		}
	}
}

// TestRowLayoutFollowsBasis checks the row copy's nonbasic-first layout
// after every pivot: of devex solves, which scatter pivot rows through it
// from their first pivot; of classic solves, which build it for the
// artificials' expulsion or Bland's rule and keep it from there; and across
// a singular refactorization's recovery, which reinstalls a basis
// wholesale.
func TestRowLayoutFollowsBasis(t *testing.T) {
	seen := checkPicks(t, true)
	for _, rule := range []pricingRule{pricingDantzig, pricingDevex} {
		for trial := 0; trial < 10; trial++ {
			m := samShapedLP(rand.New(rand.NewSource(int64(5000+trial))), 1.0)
			if sol, err := solveWith(rule, m, Options{}); err != nil || sol.Status != Optimal {
				t.Fatalf("%s, trial %d: %v %v", rule, trial, sol.Status, err)
			}
		}
		withPricing(rule, func() { mustOptimal(t, crashStaircase(270, 600, 0, false).m, Options{}, "staircase") })
	}
	var stats SolveStats
	withFaults(func(call int) bool { return call == 3 }, func() {
		mustOptimal(t, crashStaircase(34, 2400, 0, false).m, Options{Stats: &stats}, "one fault")
	})
	if stats.Recoveries != 1 || stats.DevexSolves != 1 {
		t.Fatalf("recoveries %d, devex solves %d; want a devex solve that recovered once", stats.Recoveries, stats.DevexSolves)
	}
	if seen().Layouts == 0 {
		t.Fatal("no layout checked")
	}
}
