package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomModel generates a well-scaled random LP exercising every presolve
// reduction trigger: fixed variables, shifted and unbounded-above columns,
// singleton and empty rows, wide redundant rows, dominated columns, and a
// mix of senses and orientations.
func randomModel(r *rand.Rand) *Model {
	m := NewModel()
	m.SetMaximize(r.Intn(2) == 0)
	nv := 4 + r.Intn(12)
	nr := 3 + r.Intn(12)
	vars := make([]Var, nv)
	for j := 0; j < nv; j++ {
		lo, up := 0.0, 2.0+4*r.Float64()
		switch r.Intn(10) {
		case 0: // fixed
			lo = 1 + r.Float64()
			up = lo
		case 1: // shifted lower bound
			lo = -2 + r.Float64()
		case 2: // shifted lower bound, unbounded above
			lo = -3 * r.Float64()
			up = math.Inf(1)
		case 3, 4: // unbounded above
			up = math.Inf(1)
		}
		obj := -2 + 4*r.Float64()
		if r.Intn(6) == 0 {
			obj = 0
		}
		vars[j] = m.AddVar(lo, up, obj)
	}
	for i := 0; i < nr; i++ {
		sense := Sense(r.Intn(3))
		width := 1 + r.Intn(4)
		terms := make([]Term, 0, width)
		used := map[int]bool{}
		for len(terms) < width {
			j := r.Intn(nv)
			if used[j] {
				continue
			}
			used[j] = true
			c := -2 + 4*r.Float64()
			if math.Abs(c) < 0.05 {
				c = 0.5
			}
			terms = append(terms, Term{vars[j], c})
		}
		rhs := -3 + 10*r.Float64()
		if sense == GE {
			rhs = -6 + 8*r.Float64()
		}
		if r.Intn(12) == 0 {
			rhs = 50 + 10*r.Float64() // likely redundant vs bounds
		}
		m.AddConstraint(sense, rhs, terms...)
	}
	return m
}

// checkOptimalityCertificate verifies that (X, Dual) form a KKT
// certificate for the model: primal feasibility, dual feasibility (sign
// conditions per sense, and per variable position on the reduced costs the
// duals imply), and complementary slackness. Together with
// objective agreement against a trusted solve this proves the solution
// optimal — without demanding the exact same vertex, which degenerate
// optima do not guarantee.
func checkOptimalityCertificate(t *testing.T, m *Model, sol *Solution, tag string) {
	t.Helper()
	const tol = 1e-6
	if r := m.residual(sol.X); r > tol {
		t.Errorf("%s: primal residual %g", tag, r)
	}
	// Dual signs per sense: max wants LE >= 0, GE <= 0; min is mirrored.
	for i := range m.rows {
		y := sol.Dual[i]
		bad := false
		switch m.senses[i] {
		case LE:
			bad = (m.maximize && y < -tol) || (!m.maximize && y > tol)
		case GE:
			bad = (m.maximize && y > tol) || (!m.maximize && y < -tol)
		}
		if bad {
			t.Errorf("%s: row %d (%v) dual %g has infeasible sign", tag, i, m.senses[i], y)
		}
		// Complementary slackness: a priced row must be active.
		if math.Abs(y) > tol {
			act := 0.0
			scale := 1.0
			for _, tm := range m.rows[i] {
				v := tm.Coef * sol.X[tm.Var]
				act += v
				if a := math.Abs(v); a > scale {
					scale = a
				}
			}
			if math.Abs(act-m.rhs[i])/scale > 1e-5 {
				t.Errorf("%s: row %d dual %g but slack %g", tag, i, y, act-m.rhs[i])
			}
		}
	}
	for j, d := range reducedCosts(m, sol.Dual) {
		x := sol.X[j]
		lo, up := m.lo[j], m.up[j]
		if up-lo < tol {
			continue // fixed variables carry any reduced cost
		}
		atLo := x <= lo+tol*(1+math.Abs(lo))
		atUp := !math.IsInf(up, 1) && x >= up-tol*(1+math.Abs(up))
		dd := d
		if !m.maximize {
			dd = -dd // flip into "max" orientation: at lo => dd<=0, at up => dd>=0
		}
		switch {
		case atLo && !atUp:
			if dd > 1e-5 {
				t.Errorf("%s: var %d at lower bound with improving reduced cost %g", tag, j, d)
			}
		case atUp && !atLo:
			if dd < -1e-5 {
				t.Errorf("%s: var %d at upper bound with improving reduced cost %g", tag, j, d)
			}
		case !atLo && !atUp:
			if math.Abs(dd) > 1e-5 {
				t.Errorf("%s: interior var %d has nonzero reduced cost %g", tag, j, d)
			}
		}
	}
}

// TestPresolveDifferentialRandom compares presolve-on against presolve-off
// across a sweep of random models: statuses must agree, optimal objectives
// must match, and the presolved path's full-model solution must be a valid
// optimality certificate.
func TestPresolveDifferentialRandom(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := randomModel(r)
		plain, err := m.Solve(Options{})
		if err != nil {
			t.Fatalf("seed %d: plain solve: %v", seed, err)
		}
		pre, err := m.solvePresolved(Options{})
		if err != nil {
			t.Fatalf("seed %d: presolved solve: %v", seed, err)
		}
		if plain.Status != pre.Status {
			t.Errorf("seed %d: status plain=%v presolve=%v", seed, plain.Status, pre.Status)
			continue
		}
		if plain.Status != Optimal {
			continue
		}
		scale := 1 + math.Abs(plain.Objective)
		if math.Abs(plain.Objective-pre.Objective)/scale > 1e-6 {
			t.Errorf("seed %d: objective plain=%g presolve=%g", seed, plain.Objective, pre.Objective)
		}
		checkOptimalityCertificate(t, m, pre, fmt.Sprintf("seed %d", seed))
	}
}

// TestPresolveMutateAndResolve drives the retained-model path: objective
// edits (SetObj, the one edit a built model takes) followed by warm
// re-solves, with presolve on and off, checking agreement after every
// edit. Then come objective steps of three kinds — same-sign rescales,
// which reuse the last reduction outright, a coefficient set to exactly
// zero and a sign flip, which run presolve again — and after every edit
// the retained model's presolved solve must be bit for bit the solve of a
// fresh copy of it given the same warm basis.
func TestPresolveMutateAndResolve(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := randomModel(r)
		var warmPre, warmPlain *Basis
		for step := 0; step < 4; step++ {
			if step > 0 {
				// Redraw a third of the coefficients: the edit Rebind makes.
				for j := 0; j < m.NumVars(); j++ {
					if r.Intn(3) == 0 {
						m.SetObj(Var(j), -2+4*r.Float64())
					}
				}
			}
			plain, err := m.Solve(Options{WarmBasis: warmPlain})
			if err != nil {
				t.Fatalf("seed %d step %d: plain: %v", seed, step, err)
			}
			pre := solveLikeFresh(t, m, warmPre, fmt.Sprintf("seed %d step %d", seed, step))
			if plain.Status != pre.Status {
				t.Fatalf("seed %d step %d: status plain=%v presolve=%v", seed, step, plain.Status, pre.Status)
			}
			warmPlain, warmPre = plain.Basis(), pre.Basis()
			if plain.Status != Optimal {
				continue
			}
			scale := 1 + math.Abs(plain.Objective)
			if math.Abs(plain.Objective-pre.Objective)/scale > 1e-6 {
				t.Errorf("seed %d step %d: objective plain=%g presolve=%g", seed, step, plain.Objective, pre.Objective)
			}
			checkOptimalityCertificate(t, m, pre, fmt.Sprintf("seed %d step %d", seed, step))
		}

		nonzero := func() Var {
			for k := 0; ; k++ {
				if j := Var(r.Intn(m.NumVars())); m.obj[j] != 0 || k > 100 {
					return j
				}
			}
		}
		for step, kind := range []string{"rescale", "rescale", "zero", "rescale", "flip", "rescale"} {
			moved := true // some coefficient changed sign class
			switch kind {
			case "rescale":
				for j, c := range m.obj {
					m.SetObj(Var(j), c*(0.25+1.5*r.Float64()))
				}
				moved = false
			case "zero":
				j := nonzero()
				moved = m.obj[j] != 0
				m.SetObj(j, 0)
			case "flip":
				j := nonzero()
				moved = m.obj[j] != 0
				m.SetObj(j, -m.obj[j])
			}
			ctx := fmt.Sprintf("seed %d objective step %d (%s)", seed, step, kind)
			var stats SolveStats
			pre := solveLikeFresh(t, m, warmPre, ctx, &stats)
			// A presolve that decided the status itself records nothing.
			if reused := stats.PresolveReused == 1; stats.Presolved == 1 && reused == moved {
				t.Errorf("%s: presolve reused %v", ctx, reused)
			}
			warmPre = pre.Basis()
			if pre.Status == Optimal {
				checkOptimalityCertificate(t, m, pre, ctx)
			}
		}
	}
}

// solveLikeFresh solves m with presolve from warm and requires the answer,
// bit for bit, of a freshly built copy of m solved the same way: whatever
// m retained from earlier solves (reduction, reduced model, standard form)
// must not show.
func solveLikeFresh(t *testing.T, m *Model, warm *Basis, ctx string, stats ...*SolveStats) *Solution {
	t.Helper()
	opts := Options{WarmBasis: warm}
	if len(stats) > 0 {
		opts.Stats = stats[0]
	}
	got, err := m.solvePresolved(opts)
	if err != nil {
		t.Fatalf("%s: retained: %v", ctx, err)
	}
	fresh := NewModel()
	fresh.SetMaximize(m.maximize)
	for j := range m.obj {
		fresh.AddVar(m.lo[j], m.up[j], m.obj[j])
	}
	for i, row := range m.rows {
		fresh.AddConstraint(m.senses[i], m.rhs[i], row...)
	}
	want, err := fresh.solvePresolved(Options{WarmBasis: warm})
	if err != nil {
		t.Fatalf("%s: fresh: %v", ctx, err)
	}
	requireIdentical(t, got, want, ctx)
	return got
}

// requireIdentical asserts two solutions are the same to the bit: status,
// pivot count, objective, and every primal and dual entry.
func requireIdentical(t *testing.T, got, want *Solution, ctx string) {
	t.Helper()
	if got.Status != want.Status || got.Iterations != want.Iterations ||
		math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("%s: %v, %d pivots, objective %v; want %v, %d, %v", ctx,
			got.Status, got.Iterations, got.Objective, want.Status, want.Iterations, want.Objective)
	}
	for _, v := range []struct {
		name      string
		got, want []float64
	}{{"X", got.X, want.X}, {"Dual", got.Dual, want.Dual}} {
		if len(v.got) != len(v.want) {
			t.Fatalf("%s: %s has %d entries, want %d", ctx, v.name, len(v.got), len(v.want))
		}
		for i := range v.want {
			if math.Float64bits(v.got[i]) != math.Float64bits(v.want[i]) {
				t.Fatalf("%s: %s[%d] = %v, want %v", ctx, v.name, i, v.got[i], v.want[i])
			}
		}
	}
}

// TestPresolveReductions pins down individual reductions on hand-built
// models where the expected reduced shape and recovered duals are known.
func TestPresolveReductions(t *testing.T) {
	t.Run("singleton-row-becomes-binding-bound", func(t *testing.T) {
		// max x+y s.t. x <= 3 (singleton), x+y <= 10, y <= 4 (bound).
		m := NewModel()
		m.SetMaximize(true)
		x := m.AddVar(0, Inf, 1)
		y := m.AddVar(0, 4, 1)
		rx := m.AddConstraint(LE, 3, Term{x, 1})
		rsum := m.AddConstraint(LE, 10, Term{x, 1}, Term{y, 1})
		sol, err := m.solvePresolved(Options{})
		if err != nil || sol.Status != Optimal {
			t.Fatalf("solve: %v %v", err, sol.Status)
		}
		if math.Abs(sol.Objective-7) > 1e-9 {
			t.Fatalf("objective %g, want 7", sol.Objective)
		}
		// The singleton row is the binding constraint on x: its dual must
		// carry x's unit value; the wide row is slack (3+4 < 10), dual 0.
		if math.Abs(sol.Dual[rx]-1) > 1e-9 {
			t.Errorf("singleton row dual %g, want 1", sol.Dual[rx])
		}
		if math.Abs(sol.Dual[rsum]) > 1e-9 {
			t.Errorf("slack row dual %g, want 0", sol.Dual[rsum])
		}
	})

	t.Run("redundant-row-dropped-with-zero-dual", func(t *testing.T) {
		// Row activity can never reach the rhs: dual must be exactly 0.
		m := NewModel()
		m.SetMaximize(true)
		x := m.AddVar(0, 2, 1)
		y := m.AddVar(0, 2, 1)
		red := m.AddConstraint(LE, 100, Term{x, 1}, Term{y, 1})
		sol, err := m.solvePresolved(Options{})
		if err != nil || sol.Status != Optimal {
			t.Fatalf("solve: %v %v", err, sol.Status)
		}
		if sol.Dual[red] != 0 {
			t.Errorf("redundant row dual %g, want exactly 0", sol.Dual[red])
		}
		if math.Abs(sol.Objective-4) > 1e-9 {
			t.Errorf("objective %g, want 4", sol.Objective)
		}
	})

	t.Run("fixed-variable-substituted", func(t *testing.T) {
		m := NewModel()
		m.SetMaximize(true)
		x := m.AddVar(2, 2, 5) // fixed at 2
		y := m.AddVar(0, Inf, 1)
		r := m.AddConstraint(LE, 7, Term{x, 1}, Term{y, 1})
		sol, err := m.solvePresolved(Options{})
		if err != nil || sol.Status != Optimal {
			t.Fatalf("solve: %v %v", err, sol.Status)
		}
		if sol.X[x] != 2 || math.Abs(sol.X[y]-5) > 1e-9 {
			t.Errorf("X = (%g, %g), want (2, 5)", sol.X[x], sol.X[y])
		}
		if math.Abs(sol.Dual[r]-1) > 1e-9 {
			t.Errorf("row dual %g, want 1", sol.Dual[r])
		}
		if math.Abs(sol.Objective-15) > 1e-9 {
			t.Errorf("objective %g, want 15", sol.Objective)
		}
	})

	t.Run("equality-singleton-fixes-and-recovers-dual", func(t *testing.T) {
		// 2x = 6 fixes x=3; the row's dual must absorb x's whole value
		// since x is interior to [0, 10].
		m := NewModel()
		m.SetMaximize(true)
		x := m.AddVar(0, 10, 4)
		y := m.AddVar(0, 5, 1)
		req := m.AddConstraint(EQ, 6, Term{x, 2})
		m.AddConstraint(LE, 100, Term{x, 1}, Term{y, 1})
		sol, err := m.solvePresolved(Options{})
		if err != nil || sol.Status != Optimal {
			t.Fatalf("solve: %v %v", err, sol.Status)
		}
		if math.Abs(sol.X[x]-3) > 1e-9 {
			t.Errorf("x = %g, want 3", sol.X[x])
		}
		// d_x must be 0 after recovery: 4 - 2*y_eq = 0 => y_eq = 2.
		if math.Abs(sol.Dual[req]-2) > 1e-9 {
			t.Errorf("equality singleton dual %g, want 2", sol.Dual[req])
		}
		if d := reducedCosts(m, sol.Dual)[x]; math.Abs(d) > 1e-9 {
			t.Errorf("fixed-interior var reduced cost %g, want 0", d)
		}
	})

	t.Run("infeasible-detected-in-presolve", func(t *testing.T) {
		m := NewModel()
		x := m.AddVar(0, 1, 1)
		m.AddConstraint(GE, 5, Term{x, 1}) // x >= 5 vs up = 1
		sol, err := m.solvePresolved(Options{})
		if err != nil {
			t.Fatalf("solve: %v", err)
		}
		if sol.Status != Infeasible {
			t.Fatalf("status %v, want infeasible", sol.Status)
		}
	})

	t.Run("everything-reduces-away", func(t *testing.T) {
		// All variables fixed or dominated, all rows dropped: the reduced
		// model is empty and postsolve alone produces the answer.
		m := NewModel()
		m.SetMaximize(true)
		x := m.AddVar(1, 1, 3)
		y := m.AddVar(0, 2, 1) // dominated upward: no rows resist
		sol, err := m.solvePresolved(Options{})
		if err != nil || sol.Status != Optimal {
			t.Fatalf("solve: %v %v", err, sol.Status)
		}
		if sol.X[x] != 1 || sol.X[y] != 2 {
			t.Errorf("X = (%g, %g), want (1, 2)", sol.X[x], sol.X[y])
		}
		if math.Abs(sol.Objective-5) > 1e-9 {
			t.Errorf("objective %g, want 5", sol.Objective)
		}
	})
}
