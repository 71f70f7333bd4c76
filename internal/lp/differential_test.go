package lp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// solveBoth runs the model on the sparse (default) and dense (reference)
// kernels with otherwise identical options.
func solveBoth(t *testing.T, m *Model, opts Options) (sparse, dense *Solution) {
	t.Helper()
	sp, err := m.Solve(opts)
	if err != nil && sp == nil {
		t.Fatalf("sparse solve: %v", err)
	}
	dn, err := solveDense(m, opts)
	if err != nil && dn == nil {
		t.Fatalf("dense solve: %v", err)
	}
	return sp, dn
}

// requireAgreement asserts the two kernels reached the same status and, for
// Optimal outcomes, matching objective, primal and dual vectors (reduced
// costs are c − yᵀA, so they agree with the duals). Both kernels run the identical pivot sequence (pricing and ratio
// tests are deterministic and the kernels differ only in roundoff), so
// element-wise agreement is the expected behavior, not a lucky accident.
func requireAgreement(t *testing.T, sp, dn *Solution, ctx string) {
	t.Helper()
	if sp.Status != dn.Status {
		t.Fatalf("%s: status sparse=%v dense=%v", ctx, sp.Status, dn.Status)
	}
	if sp.Status != Optimal {
		return
	}
	relTol := 1e-6 * (1 + math.Abs(dn.Objective))
	if d := math.Abs(sp.Objective - dn.Objective); d > relTol {
		t.Fatalf("%s: objective sparse=%v dense=%v (diff %g)", ctx, sp.Objective, dn.Objective, d)
	}
	for j := range dn.X {
		if d := math.Abs(sp.X[j] - dn.X[j]); d > 1e-5*(1+math.Abs(dn.X[j])) {
			t.Fatalf("%s: x[%d] sparse=%v dense=%v", ctx, j, sp.X[j], dn.X[j])
		}
	}
	for i := range dn.Dual {
		if d := math.Abs(sp.Dual[i] - dn.Dual[i]); d > 1e-5*(1+math.Abs(dn.Dual[i])) {
			t.Fatalf("%s: dual[%d] sparse=%v dense=%v", ctx, i, sp.Dual[i], dn.Dual[i])
		}
	}
}

// TestKernelDifferentialSAMShaped: the tentpole's differential gate — on
// randomized SAM-shaped instances the sparse LU kernel must reproduce the
// dense reference kernel's objective, primals and duals,
// both cold and across warm-started re-solves after an RHS perturbation.
func TestKernelDifferentialSAMShaped(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		seed := int64(5000 + trial)
		model := samShapedLP(rand.New(rand.NewSource(seed)), 1.0)
		sp, dn := solveBoth(t, model, Options{})
		requireAgreement(t, sp, dn, "cold")
		if sp.Status != Optimal {
			continue
		}

		// Warm re-solve of an RHS-perturbed sibling, each kernel restarting
		// from its own captured basis.
		perturbed := samShapedLP(rand.New(rand.NewSource(seed)), 1.07)
		wsp, err := perturbed.Solve(Options{WarmBasis: sp.Basis()})
		if err != nil {
			t.Fatalf("trial %d: sparse warm: %v", trial, err)
		}
		wdn, err := solveDense(perturbed, Options{WarmBasis: dn.Basis()})
		if err != nil {
			t.Fatalf("trial %d: dense warm: %v", trial, err)
		}
		if wsp.Status != Optimal || wdn.Status != Optimal {
			t.Fatalf("trial %d: warm statuses %v/%v", trial, wsp.Status, wdn.Status)
		}
		relTol := 1e-6 * (1 + math.Abs(wdn.Objective))
		if d := math.Abs(wsp.Objective - wdn.Objective); d > relTol {
			t.Fatalf("trial %d: warm objective sparse=%v dense=%v", trial, wsp.Objective, wdn.Objective)
		}
		for i := range wdn.Dual {
			if d := math.Abs(wsp.Dual[i] - wdn.Dual[i]); d > 1e-5*(1+math.Abs(wdn.Dual[i])) {
				t.Fatalf("trial %d: warm dual[%d] sparse=%v dense=%v", trial, i, wsp.Dual[i], wdn.Dual[i])
			}
		}

		// Cross-kernel warm start: a basis captured on the dense kernel
		// carries a dense snapshot; installing it into a sparse solve must
		// transparently refactorize rather than reuse the foreign snapshot,
		// and still land on the same optimum.
		cross, err := perturbed.Solve(Options{WarmBasis: dn.Basis()})
		if err != nil {
			t.Fatalf("trial %d: cross-kernel warm: %v", trial, err)
		}
		if cross.Status != Optimal || math.Abs(cross.Objective-wdn.Objective) > relTol {
			t.Fatalf("trial %d: cross-kernel warm objective %v want %v", trial, cross.Objective, wdn.Objective)
		}
	}
}

// TestKernelDifferentialDegenerate: highly degenerate instances — identical
// replicated capacity rows force massive ratio-test ties and zero-length
// pivots — must terminate at the same optimum on both kernels and under
// either pricing rule.
func TestKernelDifferentialDegenerate(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		r := rand.New(rand.NewSource(int64(7000 + trial)))
		m := NewModel()
		m.SetMaximize(true)
		n := 6 + r.Intn(5)
		vars := make([]Term, n)
		for j := 0; j < n; j++ {
			v := m.AddVar(0, 1, 1+float64(j%3)*0.5)
			vars[j] = Term{Var: v, Coef: 1}
		}
		// The same aggregate row replicated many times: every ratio test
		// over these rows ties exactly.
		cap := 1 + r.Float64()*2
		for k := 0; k < 10; k++ {
			m.AddConstraint(LE, cap, vars...)
		}
		// A few random side rows so the instance is not pure replication.
		for k := 0; k < 3; k++ {
			terms := []Term{vars[r.Intn(n)], vars[r.Intn(n)]}
			m.AddConstraint(LE, cap*0.8, terms...)
		}
		sp, dn := solveBoth(t, m, Options{})
		requireAgreement(t, sp, dn, "degenerate")
		if sp.Status != Optimal {
			t.Fatalf("trial %d: degenerate instance not optimal: %v", trial, sp.Status)
		}
		// Devex on the same degenerate shape: the ties must not move its
		// optimum off the default rule's.
		dv, err := solveWith(pricingDevex, m, Options{})
		if err != nil && dv == nil {
			t.Fatalf("trial %d: devex: %v", trial, err)
		}
		requireCrossOptimal(t, m, dv, sp, "degenerate-devex")
	}
}

// TestKernelDifferentialTaxonomy: infeasible and unbounded instances must
// classify identically on both kernels.
func TestKernelDifferentialTaxonomy(t *testing.T) {
	inf := NewModel()
	x := inf.AddVar(0, 10, 1)
	inf.AddConstraint(GE, 5, Term{Var: x, Coef: 1})
	inf.AddConstraint(LE, 2, Term{Var: x, Coef: 1})
	spI, dnI := solveBoth(t, inf, Options{})
	if spI.Status != Infeasible || dnI.Status != Infeasible {
		t.Fatalf("infeasible: sparse=%v dense=%v", spI.Status, dnI.Status)
	}

	unb := NewModel()
	unb.SetMaximize(true)
	y := unb.AddVar(0, Inf, 1)
	z := unb.AddVar(0, Inf, 1)
	unb.AddConstraint(GE, 1, Term{Var: y, Coef: 1}, Term{Var: z, Coef: 1})
	spU, dnU := solveBoth(t, unb, Options{})
	if spU.Status != Unbounded || dnU.Status != Unbounded {
		t.Fatalf("unbounded: sparse=%v dense=%v", spU.Status, dnU.Status)
	}
}

// TestSparseSolveWithGrowthOnlyRefactor: with the periodic cadence pushed
// out of reach, the sparse kernel's own eta-growth/drift policy is the only
// thing triggering mid-solve refactorizations — the solve must still reach
// the reference optimum. (The kernel-level growth trigger is asserted
// directly in TestLUGrowthTriggersRefactor.)
func TestSparseSolveWithGrowthOnlyRefactor(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		model := samShapedLP(rand.New(rand.NewSource(int64(8100+trial))), 1.0)
		want, err := solveDense(model, Options{})
		if err != nil || want.Status != Optimal {
			continue
		}
		got, err := solveEvery(1<<20, model, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		relTol := 1e-6 * (1 + math.Abs(want.Objective))
		if got.Status != Optimal || math.Abs(got.Objective-want.Objective) > relTol {
			t.Fatalf("trial %d: growth-only refactor objective %v want %v (status %v)",
				trial, got.Objective, want.Objective, got.Status)
		}
	}
}

// TestCaptureSurvivesLaterMutation: the satellite regression for the old
// "dense inverse is aliased, not copied" hazard. A captured Basis must stay
// valid no matter how many later warm solves pivot away from it: installing
// it twice (with a different perturbation in between, so the first warm
// solve mutates its installed copy heavily) must give the same result as a
// cold solve each time.
func TestCaptureSurvivesLaterMutation(t *testing.T) {
	for _, dense := range []bool{false, true} {
		solve := (*Model).Solve
		if dense {
			solve = solveDense
		}
		seed := int64(4242)
		base := samShapedLP(rand.New(rand.NewSource(seed)), 1.0)
		first, err := solve(base, Options{})
		if err != nil || first.Status != Optimal {
			t.Fatalf("dense=%v: base solve %v %v", dense, first.Status, err)
		}
		b := first.Basis()
		if b == nil {
			t.Fatalf("dense=%v: no basis captured", dense)
		}

		// Warm solve #1 against a strongly perturbed sibling: plenty of
		// dual-cleanup and phase-2 pivots mutate the installed factorization.
		p1 := samShapedLP(rand.New(rand.NewSource(seed)), 1.9)
		if _, err := solve(p1, Options{WarmBasis: b}); err != nil {
			t.Fatalf("dense=%v: warm solve 1: %v", dense, err)
		}

		// Warm solve #2 from the SAME captured basis must be unaffected by
		// solve #1's pivots and match a cold solve of the same model.
		p2 := samShapedLP(rand.New(rand.NewSource(seed)), 1.4)
		cold, err := solve(p2, Options{})
		if err != nil || cold.Status != Optimal {
			t.Fatalf("dense=%v: cold reference %v %v", dense, cold.Status, err)
		}
		warm, err := solve(p2, Options{WarmBasis: b})
		if err != nil || warm.Status != Optimal {
			t.Fatalf("dense=%v: warm solve 2 %v %v", dense, warm.Status, err)
		}
		relTol := 1e-6 * (1 + math.Abs(cold.Objective))
		if d := math.Abs(warm.Objective - cold.Objective); d > relTol {
			t.Fatalf("dense=%v: captured basis corrupted by intervening solve: warm %v cold %v",
				dense, warm.Objective, cold.Objective)
		}
	}
	captureSurvivesBorrowed(t)
}

// captureSurvivesBorrowed is TestCaptureSurvivesLaterMutation on the
// borrowed path. Above LargeModelRows the kernel is Forrest–Tomlin, whose
// capture is a scratch-free view of the capturing solve's arrays and whose
// every install is a view of that: a Basis captured, whose capturing kernel
// then pivots and refactorizes, and which warm-starts solves that pivot —
// one after another, then two at once — must give each of them the answer
// its first install gave, to the bit. Under the race detector the concurrent
// pair also proves an install writes nothing the Basis holds, on either
// kernel.
func captureSurvivesBorrowed(t *testing.T) {
	var kernels []factor
	old := newFactor
	defer func() { newFactor = old }()
	newFactor = func(large bool) factor {
		f := old(large)
		kernels = append(kernels, f)
		return f
	}
	src := crashStaircase(37, 2400, 0, false).m
	b := mustOptimal(t, src, Options{}, "cold").Basis()
	newFactor = old
	snap, ok := b.fac.(*ftFactor)
	if !ok || !snap.borrowed || snap.mkz != nil || snap.xwork != nil || snap.sxw != nil || snap.ftb != nil {
		t.Fatalf("captured %T is not a scratch-free borrowed view", b.fac)
	}
	edited := func() *Model {
		lp := crashStaircase(37, 2400, 0, false)
		for j := 0; j < len(lp.flows); j += 3 {
			lp.m.SetObj(lp.flows[j], 0.1)
		}
		return lp.m
	}
	want := mustOptimal(t, edited(), Options{WarmBasis: b}, "first install")
	if want.Iterations == 0 {
		t.Fatal("the edit left the warm solve no pivot to take")
	}

	// The capturing kernel pivots on, then refactorizes.
	f, std := kernels[0].(*ftFactor), src.std
	w := make([]float64, std.m)
	var nz []int32
	for q := 0; q < 40; q++ {
		nz = f.ftranColNz(std.cols[q], w, nz)
		r := nz[0]
		for _, i := range nz {
			if math.Abs(w[i]) > math.Abs(w[r]) {
				r = i
			}
		}
		f.updateNz(int(r), w, nz)
	}
	if f.refactorize(std, b.basic, time.Time{}) != refactorOK {
		t.Fatal("refactorize of the captured basis failed")
	}
	for k := 0; k < 2; k++ {
		requireIdentical(t, mustOptimal(t, edited(), Options{WarmBasis: b}, "install"), want, fmt.Sprintf("install %d", k+2))
	}

	small := samShapedLP(rand.New(rand.NewSource(4243)), 1.0)
	smallB := mustOptimal(t, small, Options{}, "small cold").Basis()
	perturbed := func() *Model { return samShapedLP(rand.New(rand.NewSource(4243)), 1.3) }
	smallWant := mustOptimal(t, perturbed(), Options{WarmBasis: smallB}, "small install")
	for _, c := range []struct {
		build func() *Model
		b     *Basis
		want  *Solution
	}{{edited, b, want}, {perturbed, smallB, smallWant}} {
		got := make([]*Solution, 2)
		var wg sync.WaitGroup
		for i := range got {
			m := c.build()
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], _ = m.Solve(Options{WarmBasis: c.b})
			}()
		}
		wg.Wait()
		for i, g := range got {
			if g == nil {
				t.Fatalf("concurrent install %d failed", i)
			}
			requireIdentical(t, g, c.want, fmt.Sprintf("concurrent install %d", i))
		}
	}
}

// TestTimeBudgetStillBindsOnSparseKernel: the PR-3 wall-clock guardrail must
// hold end-to-end on the new default kernel — an absurdly small budget
// yields TimeLimit (with ErrTimeBudget) and no captured basis.
func TestTimeBudgetStillBindsOnSparseKernel(t *testing.T) {
	model := samShapedLP(rand.New(rand.NewSource(99)), 1.0)
	sol, err := solveEvery(1, model, Options{TimeBudget: time.Nanosecond})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != TimeLimit {
		t.Fatalf("status %v, want TimeLimit", sol.Status)
	}
	if !errors.Is(sol.Status.Err(), ErrTimeBudget) {
		t.Fatalf("Err() = %v, want ErrTimeBudget", sol.Status.Err())
	}
	if sol.Basis() != nil {
		t.Fatal("a timed-out solve must not capture a basis")
	}
}

// requireCrossOptimal asserts two solves of the SAME model agree as optima:
// identical status, matching objective, and mutual complementary slackness —
// solution a's primal paired with solution b's dual certificate must have a
// (near-)zero complementarity residual, and vice versa. Degenerate SAM
// instances have alternate optimal vertices, so element-wise vector equality
// between different pricing rules is not a theorem; cross-certificate
// agreement is, and it pins objective, primal feasibility, dual
// feasibility, and reduced-cost consistency all at once.
func requireCrossOptimal(t *testing.T, m *Model, a, b *Solution, ctx string) {
	t.Helper()
	if a.Status != b.Status {
		t.Fatalf("%s: status %v vs %v", ctx, a.Status, b.Status)
	}
	if a.Status != Optimal {
		return
	}
	relTol := 1e-6 * (1 + math.Abs(b.Objective))
	if d := math.Abs(a.Objective - b.Objective); d > relTol {
		t.Fatalf("%s: objective %v vs %v (diff %g)", ctx, a.Objective, b.Objective, d)
	}
	const tol = 1e-5
	check := func(x, dual, red []float64, tag string) {
		t.Helper()
		compRes := 0.0
		for i, terms := range m.rows {
			act := 0.0
			for _, tm := range terms {
				act += tm.Coef * x[tm.Var]
			}
			rtol := tol * (1 + math.Abs(m.rhs[i]))
			switch m.senses[i] {
			case LE:
				if act > m.rhs[i]+rtol {
					t.Fatalf("%s/%s: row %d activity %g > rhs %g", ctx, tag, i, act, m.rhs[i])
				}
			case GE:
				if act < m.rhs[i]-rtol {
					t.Fatalf("%s/%s: row %d activity %g < rhs %g", ctx, tag, i, act, m.rhs[i])
				}
			case EQ:
				if math.Abs(act-m.rhs[i]) > rtol {
					t.Fatalf("%s/%s: row %d activity %g != rhs %g", ctx, tag, i, act, m.rhs[i])
				}
			}
			compRes += math.Abs(act-m.rhs[i]) * math.Abs(dual[i])
		}
		for v := range x {
			lo, up := m.lo[v], m.up[v]
			if x[v] < lo-tol*(1+math.Abs(lo)) || x[v] > up+tol*(1+math.Abs(up)) {
				t.Fatalf("%s/%s: var %d = %g outside [%g, %g]", ctx, tag, v, x[v], lo, up)
			}
			gap := math.Inf(1)
			if !math.IsInf(lo, -1) {
				gap = x[v] - lo
			}
			if !math.IsInf(up, 1) && up-x[v] < gap {
				gap = up - x[v]
			}
			if !math.IsInf(gap, 1) {
				compRes += gap * math.Abs(red[v])
			}
		}
		if lim := 1e-4 * (1 + math.Abs(a.Objective)); compRes > lim {
			t.Fatalf("%s/%s: cross complementarity residual %g > %g", ctx, tag, compRes, lim)
		}
	}
	check(a.X, b.Dual, reducedCosts(m, b.Dual), "aX-bY")
	check(b.X, a.Dual, reducedCosts(m, a.Dual), "bX-aY")
}

// TestPricingDifferentialDevexVsDantzig: on the randomized SAM-shaped
// corpus, devex and Dantzig must land on the same optimum — cold, with
// presolve on, and across warm-started re-solves.
func TestPricingDifferentialDevexVsDantzig(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		seed := int64(5000 + trial)
		model := samShapedLP(rand.New(rand.NewSource(seed)), 1.0)
		var sz, sv SolveStats
		dz, err := solveWith(pricingDantzig, model, Options{Stats: &sz})
		if err != nil && dz == nil {
			t.Fatalf("trial %d: dantzig: %v", trial, err)
		}
		dv, err := solveWith(pricingDevex, model, Options{Stats: &sv})
		if err != nil && dv == nil {
			t.Fatalf("trial %d: devex: %v", trial, err)
		}
		if sv.DevexSolves != 1 || sz.DevexSolves != 0 {
			t.Fatalf("trial %d: devex solves: devex=%d dantzig=%d", trial, sv.DevexSolves, sz.DevexSolves)
		}
		requireCrossOptimal(t, model, dv, dz, "cold")
		if dz.Status != Optimal {
			continue
		}

		pre := samShapedLP(rand.New(rand.NewSource(seed)), 1.0)
		pz, err := solveWith(pricingDantzig, pre, Options{Presolve: true})
		if err != nil && pz == nil {
			t.Fatalf("trial %d: presolve dantzig: %v", trial, err)
		}
		pv, err := solveWith(pricingDevex, pre, Options{Presolve: true})
		if err != nil && pv == nil {
			t.Fatalf("trial %d: presolve devex: %v", trial, err)
		}
		requireCrossOptimal(t, pre, pv, pz, "presolve")

		perturbed := samShapedLP(rand.New(rand.NewSource(seed)), 1.07)
		wz, err := solveWith(pricingDantzig, perturbed, Options{WarmBasis: dz.Basis()})
		if err != nil && wz == nil {
			t.Fatalf("trial %d: warm dantzig: %v", trial, err)
		}
		wv, err := solveWith(pricingDevex, perturbed, Options{WarmBasis: dz.Basis()})
		if err != nil && wv == nil {
			t.Fatalf("trial %d: warm devex: %v", trial, err)
		}
		requireCrossOptimal(t, perturbed, wv, wz, "warm")
	}
}

// TestDevexWeightResetAcrossRefactor: with the cadence forced to 1 every
// pivot passes through a refactorization, so the devex reference weights
// and maintained reduced costs are rebuilt at every step — the solve must
// still land on the Dantzig optimum.
func TestDevexWeightResetAcrossRefactor(t *testing.T) {
	model := samShapedLP(rand.New(rand.NewSource(4321)), 1.0)
	want, err := solveWith(pricingDantzig, model, Options{})
	if err != nil || want.Status != Optimal {
		t.Fatalf("dantzig reference: %v %v", want.Status, err)
	}
	var got *Solution
	withRefactorEvery(1, func() { got, err = solveWith(pricingDevex, model, Options{}) })
	if err != nil || got.Status != Optimal {
		t.Fatalf("devex forced-refactor solve: %v %v", got.Status, err)
	}
	requireCrossOptimal(t, model, got, want, "forced-refactor")
	if got.Refactors < got.Iterations {
		t.Fatalf("a cadence of 1 performed %d refactors over %d pivots", got.Refactors, got.Iterations)
	}
}
