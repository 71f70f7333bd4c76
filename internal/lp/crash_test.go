package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

// These tests pin the paper-scale path's logical crash (zero-rhs ≥ rows
// start on their own slack, see crashRow), the relative ratio-test
// tolerance that rides with it, and the recovery ladder behind a singular
// mid-solve refactorization.

// crashLP is a SAM-shaped staircase: n flows x_j ∈ [0, u_j] worth v_j each,
// chained by capacity rows x_j + x_{j+1} ≤ cap; one cost variable θ_w ≥ 0
// per window of 8 flows, charged c_w and held above every flow of its window
// by the §4.2 max-form rows θ_w − x_j ≥ 0 (zero right-hand side — written
// x_j − θ_w ≤ 0 instead when asLE is set); one guarantee row x_j + x_{j+1} ≥ g
// per 64 flows, genuinely violated at zero; and pad redundant bound rows, so
// a caller can land the row count on either side of LargeModelRows.
type crashLP struct {
	m                   *Model
	flows               []Var
	caps, costs, guards []Row
}

func crashStaircase(seed int64, n, pad int, asLE bool) *crashLP {
	r := rand.New(rand.NewSource(seed))
	lp := &crashLP{m: NewModel()}
	m := lp.m
	m.SetMaximize(true)
	for j := 0; j < n; j++ {
		lp.flows = append(lp.flows, m.AddVar(0, 1+2*r.Float64(), 0.5+r.Float64()))
	}
	for j := 0; j+1 < n; j++ {
		lp.caps = append(lp.caps, m.AddConstraint(LE, 0.5+2*r.Float64(), Term{lp.flows[j], 1}, Term{lp.flows[j+1], 1}))
	}
	for w := 0; w < n; w += 8 {
		theta := m.AddVar(0, Inf, -(4 + 8*r.Float64()))
		for j := w; j < w+8 && j < n; j++ {
			if asLE {
				lp.costs = append(lp.costs, m.AddConstraint(LE, 0, Term{lp.flows[j], 1}, Term{theta, -1}))
			} else {
				lp.costs = append(lp.costs, m.AddConstraint(GE, 0, Term{theta, 1}, Term{lp.flows[j], -1}))
			}
		}
	}
	for j := 0; j+1 < n; j += 64 {
		lp.guards = append(lp.guards, m.AddConstraint(GE, 0.05+0.1*r.Float64(), Term{lp.flows[j], 1}, Term{lp.flows[j+1], 1}))
	}
	for k := 0; k < pad; k++ {
		m.AddConstraint(LE, 4, Term{lp.flows[k%n], 1})
	}
	return lp
}

func mustOptimal(t *testing.T, m *Model, opts Options, ctx string) *Solution {
	t.Helper()
	sol, err := m.Solve(opts)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if sol.Status != Optimal || sol.Suspect {
		t.Fatalf("%s: status %v suspect %v", ctx, sol.Status, sol.Suspect)
	}
	return sol
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

// objTol is how closely two solves of one LP above the gate agree when they
// took different routes: the staged start's optimum is the stagedPerturb-
// perturbed problem's, a few 1e-7 relative off the pristine one here.
const objTol = 1e-6

// TestCrashSenseInvariance: θ − Σx ≥ 0 and Σx − θ ≤ 0 are the same row, so
// above the gate the two spellings must standardize to the same problem —
// same pivot count, same objective, and row duals equal up to the sign the
// sense implies, so the reduced costs agree too — with and without presolve.
func TestCrashSenseInvariance(t *testing.T) {
	for _, presolve := range []bool{false, true} {
		ge := crashStaircase(31, 2400, 0, false)
		le := crashStaircase(31, 2400, 0, true)
		var sa, sb SolveStats
		a := mustOptimal(t, ge.m, Options{Presolve: presolve, Stats: &sa}, "GE form")
		b := mustOptimal(t, le.m, Options{Presolve: presolve, Stats: &sb}, "LE form")
		if presolve && ge.m.pre.red.NumRows() < LargeModelRows {
			t.Fatalf("presolve left %d rows: the reduced model is under the gate", ge.m.pre.red.NumRows())
		}
		if sa.Artificials != len(ge.guards) || sb.Artificials != len(le.guards) {
			t.Errorf("presolve=%v: cold-start artificials %d / %d, want the %d guarantee rows",
				presolve, sa.Artificials, sb.Artificials, len(ge.guards))
		}
		if a.Iterations != b.Iterations {
			t.Errorf("presolve=%v: %d pivots as ≥ rows, %d as ≤ rows", presolve, a.Iterations, b.Iterations)
		}
		if !relClose(a.Objective, b.Objective, 1e-12) {
			t.Errorf("presolve=%v: objective %v as ≥ rows, %v as ≤ rows", presolve, a.Objective, b.Objective)
		}
		isCost := make(map[Row]bool, len(ge.costs))
		for _, r := range ge.costs {
			isCost[r] = true
		}
		for i := range a.Dual {
			want := b.Dual[i]
			if isCost[Row(i)] {
				want = -want
				if a.Dual[i] > 1e-9 {
					t.Fatalf("presolve=%v: ≥ row %d of a max problem has dual %g > 0", presolve, i, a.Dual[i])
				}
			}
			if !relClose(a.Dual[i], want, 1e-9) {
				t.Fatalf("presolve=%v: row %d dual %g, want %g", presolve, i, a.Dual[i], want)
			}
		}
		da, db := reducedCosts(ge.m, a.Dual), reducedCosts(le.m, b.Dual)
		for j := range da {
			if !relClose(da[j], db[j], 1e-9) {
				t.Fatalf("presolve=%v: var %d reduced cost %g vs %g", presolve, j, da[j], db[j])
			}
		}
	}
}

// TestCrashStandardFormAndRefresh: above the gate no zero-rhs ≥ row carries
// an artificial; data edits that keep every right-hand side on its side of
// zero patch the cached form in place and keep the warm basis; an edit that
// moves one between zero and positive changes the artificial pattern, so it
// is a structure change — rebuild, cold solve, right optimum.
func TestCrashStandardFormAndRefresh(t *testing.T) {
	lp := crashStaircase(32, 2400, 0, false)
	m := lp.m
	std, err := m.standardized()
	if err != nil {
		t.Fatal(err)
	}
	if std.nArt != len(lp.guards) {
		t.Fatalf("%d artificials, want one per guarantee row (%d)", std.nArt, len(lp.guards))
	}
	for _, r := range lp.costs {
		if std.rowSign[r] != -1 || std.art[std.basisInit[r]] {
			t.Fatalf("cost row %d: rowSign %v, starts on an artificial: %v", r, std.rowSign[r], std.art[std.basisInit[r]])
		}
	}
	for _, r := range lp.guards {
		if std.rowSign[r] != 1 || !std.art[std.basisInit[r]] {
			t.Fatalf("guarantee row %d must keep its artificial", r)
		}
	}
	cold := mustOptimal(t, m, Options{}, "cold")

	// Objective-only and rhs-magnitude edits, mirrored on a fresh model.
	edit := func(l *crashLP) {
		l.m.SetObj(l.flows[5], 1.75)
		g := l.guards[3]
		l.m.SetRHS(g, 1.5*l.m.rhs[g])
		l.m.SetRHS(l.caps[40], 0.9*l.m.rhs[l.caps[40]])
	}
	edit(lp)
	if !m.refreshStandard(m.std) {
		t.Fatal("refreshStandard rebuilt on an objective + rhs-magnitude edit")
	}
	if !cold.Basis().matches(m.std) {
		t.Fatal("warm basis no longer matches after a data-only edit")
	}
	var stats SolveStats
	warm := mustOptimal(t, m, Options{WarmBasis: cold.Basis(), Stats: &stats}, "warm")
	if stats.WarmStarts != 1 || stats.Artificials != 0 {
		t.Fatalf("warm starts %d, artificials %d: the edit cost the solve its basis", stats.WarmStarts, stats.Artificials)
	}
	fresh := crashStaircase(32, 2400, 0, false)
	edit(fresh)
	if want := mustOptimal(t, fresh.m, Options{}, "fresh").Objective; !relClose(warm.Objective, want, objTol) {
		t.Fatalf("warm objective %v, fresh model %v", warm.Objective, want)
	}

	// Zero → positive on a cost row, and back, each time from the basis of
	// the structure just left.
	prev := warm
	for _, rhs := range []float64{0.25, 0} {
		k := lp.costs[17]
		m.SetRHS(k, rhs)
		fresh.m.SetRHS(fresh.costs[17], rhs)
		if m.refreshStandard(m.std) {
			t.Fatalf("rhs → %v on a ≥ row crossed zero but refreshStandard kept the structure", rhs)
		}
		stats = SolveStats{}
		got := mustOptimal(t, m, Options{WarmBasis: prev.Basis(), Stats: &stats}, "after structure change")
		prev = got
		wantArt := len(lp.guards)
		if rhs > 0 {
			wantArt++
		}
		if stats.WarmStarts != 0 || stats.Artificials != wantArt {
			t.Fatalf("rhs → %v: warm starts %d, artificials %d (want cold, %d)", rhs, stats.WarmStarts, stats.Artificials, wantArt)
		}
		fresh.m.std = nil
		if want := mustOptimal(t, fresh.m, Options{}, "fresh").Objective; !relClose(got.Objective, want, objTol) {
			t.Fatalf("rhs → %v: objective %v, fresh model %v", rhs, got.Objective, want)
		}
	}
}

// TestCrashGateLeavesSmallModelsAlone: one row under the gate every ≥ row
// standardizes exactly as it always has — surplus plus artificial, the
// artificial basic, no row negated. The counts are a recorded expectation.
func TestCrashGateLeavesSmallModelsAlone(t *testing.T) {
	const n = 2000
	lp := crashStaircase(33, n, 0, false)
	lp = crashStaircase(33, n, LargeModelRows-1-lp.m.NumRows(), false)
	if got := lp.m.NumRows(); got != LargeModelRows-1 {
		t.Fatalf("built %d rows, want %d", got, LargeModelRows-1)
	}
	std, err := lp.m.standardized()
	if err != nil {
		t.Fatal(err)
	}
	const wantArt, wantCols = 2032, 8377 // 2000 cost + 32 guarantee rows; 2250 structurals + 2063 slacks + 2·2032
	if std.nArt != wantArt || std.n != wantCols {
		t.Fatalf("nArt %d, n %d; recorded %d, %d", std.nArt, std.n, wantArt, wantCols)
	}
	for i, sense := range lp.m.senses {
		if std.rowSign[i] != 1 {
			t.Fatalf("row %d negated under the gate", i)
		}
		if b := std.basisInit[i]; std.art[b] != (sense == GE) || len(std.cols[b]) != 1 || std.cols[b][0] != (entry{row: i, val: 1}) {
			t.Fatalf("row %d (%v) starts on column %d, artificial %v", i, sense, b, std.art[b])
		}
	}
}

// spyFactor counts the tableau-column solves a kernel is asked for.
type spyFactor struct {
	factor
	nz int
}

func (s *spyFactor) ftranColNz(col []entry, out []float64, prev []int32) []int32 {
	s.nz++
	return s.factor.ftranColNz(col, out, prev)
}

// spiedSolve solves m with its kernel wrapped in a spyFactor.
func spiedSolve(t *testing.T, m *Model, opts Options) (spy *spyFactor, sol *Solution) {
	t.Helper()
	old := newFactor
	newFactor = func(large bool) factor {
		spy = &spyFactor{factor: old(large)}
		return spy
	}
	defer func() { newFactor = old }()
	sol, err := m.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	return spy, sol
}

// TestOneSizeDecision: the same staircase one row under LargeModelRows and
// at it. Everything the solver switches on size switches between the two —
// kernel, cold pricing rule, logical crash — and nothing is left on the
// other side: the size decision is one, seen from outside. The pivot-vector
// form is the one thing both sides share: nonzero lists.
func TestOneSizeDecision(t *testing.T) {
	const n = 2000
	base := crashStaircase(33, n, 0, false).m.NumRows()
	for _, rows := range []int{LargeModelRows - 1, LargeModelRows} {
		lp := crashStaircase(33, n, rows-base, false)
		large := lp.m.NumRows() >= LargeModelRows
		var stats SolveStats
		var spy *spyFactor
		withIterBudget(60, func() { spy, _ = spiedSolve(t, lp.m, Options{Stats: &stats}) }) // the first pivots tell
		_, eta := spy.factor.(*etaFactor)
		_, ft := spy.factor.(*ftFactor)
		if eta == large || ft != large {
			t.Errorf("%d rows: kernel %T", rows, spy.factor)
		}
		if spy.nz == 0 {
			t.Errorf("%d rows: no nonzero-list tableau columns", rows)
		}
		if devex := stats.DevexSolves == 1; devex != large {
			t.Errorf("%d rows: cold solve priced with devex: %v", rows, devex)
		}
		wantArt := len(lp.guards)
		if !large {
			wantArt += len(lp.costs)
		}
		if stats.Artificials != wantArt {
			t.Errorf("%d rows: %d artificials, want %d", rows, stats.Artificials, wantArt)
		}
	}
}

// TestRelPivotTol pins the tolerance on the event it was written for: a
// 3.14e-8 entry in a column whose largest entry is 4.7e2 is not a pivot.
func TestRelPivotTol(t *testing.T) {
	w := []float64{0, 4.7e2, 3.14e-8, -1}
	if tol := relPivotTol(w, []int32{1, 2, 3}); !(tol > 3.14e-8 && tol < 1e-4) {
		t.Errorf("tolerance %g does not reject the seed-46 pivot", tol)
	}
	if tol := relPivotTol([]float64{1e-4, -2e-3}, []int32{0, 1}); tol != 1e-9 {
		t.Errorf("small column: tolerance %g, want the 1e-9 floor", tol)
	}
}

// faultyFactor is the solve's sparse kernel with refactorize failing on
// chosen calls, as a numerically singular basis would.
type faultyFactor struct {
	factor
	calls int
	fail  func(call int) bool
}

func (f *faultyFactor) refactorize(std *standard, basis []int, deadline time.Time) refactorOutcome {
	f.calls++
	if f.fail(f.calls) {
		return refactorSingular
	}
	return f.factor.refactorize(std, basis, deadline)
}

// faultEvery is the refactorization cadence under withFaults: short enough
// that the staircase solves here refactorize several times, so an injection
// aimed at a later call has one to hit.
const faultEvery = 256

// withFaults runs fn with every solve's kernel wrapped in a faultyFactor,
// at the faultEvery cadence unless fn forces its own, and returns the
// wrappers created, in order.
func withFaults(fail func(call int) bool, fn func()) []*faultyFactor {
	var made []*faultyFactor
	old := newFactor
	newFactor = func(large bool) factor {
		f := &faultyFactor{factor: old(large), fail: fail}
		made = append(made, f)
		return f
	}
	defer func() { newFactor = old }()
	withRefactorEvery(faultEvery, fn)
	return made
}

// TestSingularRefactorRecovers: one singular refactorization mid-solve is
// repaired from the snapshot — same optimum, one recovery on the books, and
// no more pivots lost than the refactorization interval it fell back over
// (the injection hits a cadence-triggered call, so the whole interval).
func TestSingularRefactorRecovers(t *testing.T) {
	never := func(int) bool { return false }
	var base, hit *Solution
	var stats SolveStats
	kernels := withFaults(never, func() {
		base = mustOptimal(t, crashStaircase(34, 2400, 0, false).m, Options{}, "baseline")
	})
	if kernels[0].calls < 4 {
		t.Fatalf("baseline refactorized %d times; the injection needs a later call to hit", kernels[0].calls)
	}
	withFaults(func(call int) bool { return call == 3 }, func() {
		hit = mustOptimal(t, crashStaircase(34, 2400, 0, false).m, Options{Stats: &stats}, "one fault")
	})
	if stats.Recoveries != 1 {
		t.Fatalf("recoveries %d, want 1", stats.Recoveries)
	}
	if !relClose(hit.Objective, base.Objective, objTol) {
		t.Fatalf("objective %v after recovery, %v without the fault", hit.Objective, base.Objective)
	}
	if lost := hit.Iterations - base.Iterations; lost > faultEvery {
		t.Fatalf("recovery cost %d pivots, a refactorization interval is %d", lost, faultEvery)
	}
}

// TestSingularLadder walks the rungs behind a recovery that fails too: a
// cold solve falls through to the classic phase 1, a warm one is retried
// cold, and only a basis nothing can factorize surfaces Singular — never a
// budget status, no budget having been set.
func TestSingularLadder(t *testing.T) {
	want := mustOptimal(t, crashStaircase(35, 2400, 0, false).m, Options{}, "reference").Objective

	// Calls 3 and 4 fail: the refactorization and the snapshot's.
	var sol *Solution
	withFaults(func(call int) bool { return call == 3 || call == 4 }, func() {
		sol = mustOptimal(t, crashStaircase(35, 2400, 0, false).m, Options{}, "cold, recovery fails once")
	})
	if !relClose(sol.Objective, want, objTol) {
		t.Fatalf("objective %v past a failed recovery, want %v", sol.Objective, want)
	}

	// A warm solve whose phase 2 cannot refactorize at all: retried cold.
	lp := crashStaircase(35, 2400, 0, false)
	cold := mustOptimal(t, lp.m, Options{}, "cold")
	for j := 0; j < len(lp.flows); j += 3 {
		lp.m.SetObj(lp.flows[j], 0.1) // enough phase-2 work to reach a refactorization
	}
	wantWarm := mustOptimal(t, lp.m, Options{}, "edited, cold").Objective
	var stats SolveStats
	withFaults(func(call int) bool { return call <= 2 }, func() {
		withRefactorEvery(8, func() {
			sol = mustOptimal(t, lp.m, Options{WarmBasis: cold.Basis(), Stats: &stats}, "warm, retried cold")
		})
	})
	if stats.WarmStarts != 0 || stats.Artificials != len(lp.guards) {
		t.Fatalf("warm starts %d, artificials %d: the singular warm solve was not retried cold", stats.WarmStarts, stats.Artificials)
	}
	if !relClose(sol.Objective, wantWarm, objTol) {
		t.Fatalf("objective %v after the cold retry, want %v", sol.Objective, wantWarm)
	}

	// Nothing factorizes: Singular, by name and on the books.
	stats = SolveStats{}
	withFaults(func(int) bool { return true }, func() {
		var err error
		if sol, err = crashStaircase(35, 2400, 0, false).m.Solve(Options{Stats: &stats}); err != nil {
			t.Fatal(err)
		}
	})
	if sol.Status != Singular || !errors.Is(sol.Status.Err(), ErrSingular) || sol.Basis() != nil {
		t.Fatalf("status %v, err %v, basis %v; want Singular with no basis", sol.Status, sol.Status.Err(), sol.Basis())
	}
	if stats.SingularHits != 1 || stats.TimeBudgetHits != 0 || stats.IterLimitHits != 0 {
		t.Fatalf("singular hits %d, time %d, iter %d; want the one Singular solve counted as itself",
			stats.SingularHits, stats.TimeBudgetHits, stats.IterLimitHits)
	}
}

// TestBarredColumnGetsItsTurn: when the column recover barred is the only
// one that prices out, optimality is not claimed over its head — the bar is
// lifted and the column enters.
func TestBarredColumnGetsItsTurn(t *testing.T) {
	m := NewModel()
	m.SetMaximize(true)
	m.AddConstraint(LE, 4, Term{m.AddVar(0, Inf, 1), 1})
	want := mustOptimal(t, m, Options{}, "reference")
	for _, rule := range []pricingRule{pricingDantzig, pricingDevex} {
		var sol *Solution
		var stats SolveStats
		withPricing(rule, func() {
			withFaults(func(call int) bool { return call == 1 }, func() {
				withRefactorEvery(1, func() {
					sol = mustOptimal(t, m, Options{Stats: &stats}, "fault after the first pivot")
				})
			})
		})
		if stats.Recoveries != 1 || sol.Objective != want.Objective {
			t.Fatalf("%s: recoveries %d, objective %v; want 1 and %v", rule, stats.Recoveries, sol.Objective, want.Objective)
		}
	}
}

// TestStagedBudgetsKeepTheirNames: a budget that runs out inside the staged
// start is reported as the budget it is.
func TestStagedBudgetsKeepTheirNames(t *testing.T) {
	for _, c := range []struct {
		maxIters int
		opts     Options
		want     Status
	}{
		{40, Options{}, IterLimit},
		{0, Options{TimeBudget: time.Nanosecond}, TimeLimit},
	} {
		var sol *Solution
		var err error
		withIterBudget(c.maxIters, func() { sol, err = crashStaircase(36, 2400, 0, false).m.Solve(c.opts) })
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != c.want {
			t.Errorf("pivot budget %d, %+v: status %v, want %v", c.maxIters, c.opts, sol.Status, c.want)
		}
	}
}
