package lp

// Presolve is the model-reduction pass Solve runs on large models.
//
// The SAM LP at paper scale is dominated by rows that cannot bind — most
// (edge, timestep) capacity rows bound flow variables whose own upper
// bounds already cap the row's activity below capacity — and by rows that
// are really just variable bounds in disguise (single-variable demand caps
// and guarantees). Presolve removes both classes before the
// simplex sees the model, and postsolve reconstructs the full primal and
// dual vectors so the Price Computer's duals survive the reduction: a row
// proven redundant against the variable bounds always admits zero as an
// optimal dual, and a singleton row that became the binding bound of its
// variable takes that variable's reduced cost back as its dual.
//
// The reduction recipe is retained on the Model. When an objective edit
// leaves the reduction unchanged (see runPresolve), the cached reduced
// model's objective is patched in place instead of rebuilt, which keeps its
// own standardized form and warm-basis signature stable across re-solves.

import (
	"cmp"
	"math"
)

// dropKind records how a row left the model during presolve, which
// determines how its dual is recovered during postsolve.
type dropKind int8

const (
	dropKeep         dropKind = iota // row survives into the reduced model
	dropEmptyRow                     // no live variables; dual 0
	dropRedundantRow                 // implied by variable bounds; dual 0
	dropSingletonBnd                 // inequality singleton folded into a bound
	dropSingletonFix                 // equality singleton fixed its variable
)

// rowDrop is the per-row recipe entry.
type rowDrop struct {
	kind   dropKind
	v      int     // variable involved (singleton kinds)
	coef   float64 // its coefficient in the row
	bound  float64 // implied bound (dropSingletonBnd)
	atUp   bool    // the implied bound is an upper bound
	strict bool    // the implied bound strictly tightened the working bound
}

// presolveState holds the reduction recipe, the reduced model, and the
// reusable scratch. It is cached on the Model and refreshed every
// presolved solve; the reduced model is rebuilt whenever the inputs change
// (runPresolve).
type presolveState struct {
	status Status // Optimal = proceed to the simplex; Infeasible = decided here
	red    *Model

	// Per original variable.
	removed []bool
	fixVal  []float64 // value of removed variables
	colMap  []int     // original var -> reduced var, -1 when removed
	lo, up  []float64 // working (tightened) bounds

	// Per original row.
	drops  []rowDrop
	rowMap []int // original row -> reduced row, -1 when dropped
	effRhs []float64

	// removeOrder lists removed variables in removal order; postsolve
	// walks it backwards so each absorption only perturbs duals of rows
	// whose other variables are processed later.
	removeOrder []int

	// The last run's inputs (see runPresolve), valid while keyed; a
	// structural edit clears it (Model.restructured).
	keyed  bool
	keyMax bool
	keyObj []int8

	// CSR index of rows per variable, for postsolve dual recovery; built
	// once per structure (varRowsOK).
	varRowsOK  bool
	varRowPtr  []int32
	varRowIdx  []int32
	varRowCoef []float64

	// Column-pass scratch.
	colCnt  []int32
	colOKDn []bool
	colOKUp []bool
	colEQ   []bool
}

const presolveFeasTol = 1e-7

// resize returns s with length n, reusing its capacity when it suffices
// (contents are not cleared).
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// runPresolve computes the reduction for the model's current data into the
// cached state, and reports whether it reused the last run's reduction
// outright.
//
// The passes read the structure, the right-hand sides, the bounds, the
// direction, and of the objective only each coefficient's sign class. The
// first three are fixed from AddVar and AddConstraint on, so when no
// coefficient changed class and the direction stayed, the last run's
// reduction is this one's bit for bit and only the reduced objective is
// patched: a SAM step that re-prices a rebound model.
func (m *Model) runPresolve() (ps *presolveState, reused bool) {
	ps = m.pre
	if ps == nil {
		ps = &presolveState{}
		m.pre = ps
	}
	if !ps.sameInputs(m) {
		m.reduce(ps)
		ps.saveInputs(m)
		return ps, false
	}
	if ps.status == Optimal {
		for j, rv := range ps.colMap {
			if rv >= 0 {
				ps.red.obj[rv] = m.obj[j]
			}
		}
	}
	return ps, true
}

// signClass is what presolve reads of a cost: <0, 0, >0 or NaN.
func signClass(c float64) int8 {
	if c != c {
		return 2
	}
	return int8(cmp.Compare(c, 0))
}

// saveInputs records what the run just made read (see runPresolve).
func (ps *presolveState) saveInputs(m *Model) {
	ps.keyed, ps.keyMax = true, m.maximize
	ps.keyObj = ps.keyObj[:0]
	for _, c := range m.obj {
		ps.keyObj = append(ps.keyObj, signClass(c))
	}
}

// sameInputs reports whether the model's direction and objective sign
// classes are the saved ones.
func (ps *presolveState) sameInputs(m *Model) bool {
	if !ps.keyed || ps.keyMax != m.maximize {
		return false
	}
	for j, c := range m.obj {
		if ps.keyObj[j] != signClass(c) {
			return false
		}
	}
	return true
}

// reduce runs the presolve passes into ps and assembles the reduced model.
func (m *Model) reduce(ps *presolveState) {
	nv, nr := m.NumVars(), m.NumRows()
	ps.status = Optimal
	ps.removed = resize(ps.removed, nv)
	ps.fixVal = resize(ps.fixVal, nv)
	ps.colMap = resize(ps.colMap, nv)
	ps.lo = resize(ps.lo, nv)
	ps.up = resize(ps.up, nv)
	ps.drops = resize(ps.drops, nr)
	clear(ps.drops)
	ps.rowMap = resize(ps.rowMap, nr)
	ps.effRhs = resize(ps.effRhs, nr)
	ps.removeOrder = ps.removeOrder[:0]
	copy(ps.lo, m.lo)
	copy(ps.up, m.up)
	clear(ps.removed)

	objSign := 1.0
	if m.maximize {
		objSign = -1
	}
	remove := func(j int, val float64) {
		ps.removed[j] = true
		ps.fixVal[j] = val
		ps.removeOrder = append(ps.removeOrder, j)
	}

	ps.colCnt = resize(ps.colCnt, nv)
	ps.colOKDn = resize(ps.colOKDn, nv)
	ps.colOKUp = resize(ps.colOKUp, nv)
	ps.colEQ = resize(ps.colEQ, nv)

	maxPasses := nv + nr + 2
	for pass := 0; pass < maxPasses; pass++ {
		changed := false

		// Variables whose working bounds have met: fix and substitute.
		for j := 0; j < nv; j++ {
			if ps.removed[j] {
				continue
			}
			lo, up := ps.lo[j], ps.up[j]
			if lo > up+presolveFeasTol*(1+math.Abs(lo)) {
				ps.status = Infeasible
				return
			}
			if lo >= up {
				remove(j, 0.5*(lo+up))
				changed = true
			}
		}

		// Row scan: empty and singleton rows.
		for i := 0; i < nr; i++ {
			if ps.drops[i].kind != dropKeep {
				continue
			}
			eff := m.rhs[i]
			live := 0
			lv, lc := -1, 0.0
			for _, t := range m.rows[i] {
				if ps.removed[int(t.Var)] {
					eff -= t.Coef * ps.fixVal[t.Var]
				} else {
					live++
					lv, lc = int(t.Var), t.Coef
				}
			}
			ps.effRhs[i] = eff
			if live > 1 {
				continue
			}
			tol := presolveFeasTol * (1 + math.Abs(m.rhs[i]))
			if live == 0 {
				viol := 0.0
				switch m.senses[i] {
				case LE:
					viol = -eff
				case GE:
					viol = eff
				case EQ:
					viol = math.Abs(eff)
				}
				if viol > tol {
					ps.status = Infeasible
					return
				}
				ps.drops[i] = rowDrop{kind: dropEmptyRow}
				changed = true
				continue
			}
			// Singleton row: one live variable.
			switch m.senses[i] {
			case EQ:
				val := eff / lc
				if val < ps.lo[lv]-tol || val > ps.up[lv]+tol {
					ps.status = Infeasible
					return
				}
				val = math.Max(ps.lo[lv], math.Min(ps.up[lv], val))
				ps.drops[i] = rowDrop{kind: dropSingletonFix, v: lv, coef: lc}
				remove(lv, val)
			default:
				// a·x ≤ b with a>0 (or ≥ with a<0) implies an upper bound;
				// the mirrored cases imply a lower bound.
				b := eff / lc
				upper := (m.senses[i] == LE) == (lc > 0)
				d := rowDrop{kind: dropSingletonBnd, v: lv, coef: lc, bound: b, atUp: upper}
				if upper {
					if b < ps.up[lv] {
						d.strict = true
						ps.up[lv] = b
					}
				} else if b > ps.lo[lv] {
					d.strict = true
					ps.lo[lv] = b
				}
				// Detect bound crossing immediately: the column pass below
				// must never see lo > up (it would fix the variable at an
				// infeasible value and hide the conflict).
				if ps.lo[lv] > ps.up[lv]+presolveFeasTol*(1+math.Abs(ps.lo[lv])) {
					ps.status = Infeasible
					return
				}
				ps.drops[i] = d
			}
			changed = true
		}

		// Redundancy scan: rows implied by the working variable bounds
		// always admit a zero dual, so dropping them is exact.
		for i := 0; i < nr; i++ {
			if ps.drops[i].kind != dropKeep || m.senses[i] == EQ {
				continue
			}
			minAct, maxAct := 0.0, 0.0
			for _, t := range m.rows[i] {
				j := int(t.Var)
				if ps.removed[j] {
					continue
				}
				lo, up := ps.lo[j], ps.up[j]
				if t.Coef > 0 {
					minAct += t.Coef * lo
					maxAct += t.Coef * up
				} else {
					minAct += t.Coef * up
					maxAct += t.Coef * lo
				}
			}
			if (m.senses[i] == LE && maxAct <= ps.effRhs[i]) ||
				(m.senses[i] == GE && minAct >= ps.effRhs[i]) {
				ps.drops[i] = rowDrop{kind: dropRedundantRow}
				changed = true
			}
		}

		// Column scan: empty and dominated columns.
		for j := 0; j < nv; j++ {
			ps.colCnt[j] = 0
			ps.colOKDn[j] = true
			ps.colOKUp[j] = true
			ps.colEQ[j] = false
		}
		for i := 0; i < nr; i++ {
			if ps.drops[i].kind != dropKeep {
				continue
			}
			for _, t := range m.rows[i] {
				j := int(t.Var)
				if ps.removed[j] {
					continue
				}
				ps.colCnt[j]++
				switch m.senses[i] {
				case EQ:
					ps.colEQ[j] = true
				case LE:
					// Decreasing x_j keeps a ≤ row feasible iff coef ≥ 0.
					if t.Coef < 0 {
						ps.colOKDn[j] = false
					} else if t.Coef > 0 {
						ps.colOKUp[j] = false
					}
				case GE:
					if t.Coef > 0 {
						ps.colOKDn[j] = false
					} else if t.Coef < 0 {
						ps.colOKUp[j] = false
					}
				}
			}
		}
		for j := 0; j < nv; j++ {
			if ps.removed[j] {
				continue
			}
			cmin := objSign * m.obj[j] // cost in minimization orientation
			lo, up := ps.lo[j], ps.up[j]
			if ps.colCnt[j] == 0 {
				// Empty column: settle at the cost-optimal bound (lo is
				// finite). An unbounded improving direction is left for the
				// simplex to certify (it may still be Infeasible elsewhere).
				switch {
				case cmin >= 0:
					remove(j, lo)
				case cmin < 0 && !math.IsInf(up, 1):
					remove(j, up)
				default:
					continue
				}
				changed = true
				continue
			}
			if ps.colEQ[j] {
				continue
			}
			// Weak domination: moving to a bound never hurts feasibility
			// and never hurts the objective, so the variable can rest there.
			if ps.colOKDn[j] && cmin >= 0 {
				remove(j, lo)
				changed = true
			} else if ps.colOKUp[j] && cmin <= 0 && !math.IsInf(up, 1) {
				remove(j, up)
				changed = true
			}
		}

		if !changed {
			break
		}
	}

	m.assembleReduced(ps)
}

// assembleReduced builds the reduced model and the row/column maps.
func (m *Model) assembleReduced(ps *presolveState) {
	nv, nr := m.NumVars(), m.NumRows()
	red := NewModel()
	red.SetMaximize(m.maximize)
	for j := 0; j < nv; j++ {
		if ps.removed[j] {
			ps.colMap[j] = -1
			continue
		}
		ps.colMap[j] = int(red.AddVar(ps.lo[j], ps.up[j], m.obj[j]))
	}
	for i := 0; i < nr; i++ {
		if ps.drops[i].kind != dropKeep {
			ps.rowMap[i] = -1
			continue
		}
		terms := make([]Term, 0, len(m.rows[i]))
		for _, t := range m.rows[i] {
			if !ps.removed[int(t.Var)] {
				terms = append(terms, Term{Var: Var(ps.colMap[t.Var]), Coef: t.Coef})
			}
		}
		// Terms are already merged (they come from merged model rows), so
		// append the row directly instead of re-merging through
		// AddConstraint.
		red.rows = append(red.rows, terms)
		red.senses = append(red.senses, m.senses[i])
		red.rhs = append(red.rhs, ps.effRhs[i])
		ps.rowMap[i] = len(red.rows) - 1
	}
	ps.red = red
}

// solvePresolved is the large-model solve pipeline: reduce, solve the
// reduced model (warm bases and telemetry pass straight through), then map
// the solution back onto the original model.
func (m *Model) solvePresolved(opts Options) (*Solution, error) {
	ps, reused := m.runPresolve()
	nv, nr := m.NumVars(), m.NumRows()
	if ps.status != Optimal {
		return &Solution{
			Status: ps.status,
			X:      make([]float64, nv),
			Dual:   make([]float64, nr),
		}, nil
	}
	redSol, err := ps.red.solve(opts, true)
	if err != nil {
		return nil, err
	}
	if opts.Stats != nil {
		opts.Stats.Presolved++
		if reused {
			opts.Stats.PresolveReused++
		}
	}
	sol := &Solution{
		Status:     redSol.Status,
		Iterations: redSol.Iterations,
		Refactors:  redSol.Refactors,
		X:          make([]float64, nv),
		Dual:       make([]float64, nr),
		basis:      redSol.basis,
	}
	if redSol.Status != Optimal {
		return sol, nil
	}

	// Primal: kept variables from the reduced solution, removed ones from
	// the recipe.
	for j := 0; j < nv; j++ {
		if ps.removed[j] {
			sol.X[j] = ps.fixVal[j]
		} else {
			sol.X[j] = redSol.X[ps.colMap[j]]
		}
	}

	// Duals: kept rows from the reduced solution; dropped rows start at
	// zero and singleton rows may absorb their variable's reduced cost.
	for i := 0; i < nr; i++ {
		if r := ps.rowMap[i]; r >= 0 {
			sol.Dual[i] = redSol.Dual[r]
		} else {
			sol.Dual[i] = 0
		}
	}
	ps.buildVarRows(m)
	m.recoverSingletonDuals(ps, sol)

	obj := 0.0
	for j, c := range m.obj {
		obj += c * sol.X[j]
	}
	sol.Objective = obj
	sol.Residual = m.residual(sol.X)
	sol.Suspect = sol.Residual > residualTol
	return sol, nil
}

// buildVarRows builds the rows-per-variable CSR index used by dual
// recovery, unless the current structure already has one.
func (ps *presolveState) buildVarRows(m *Model) {
	if ps.varRowsOK {
		return
	}
	ps.varRowsOK = true
	nv, nnz := m.NumVars(), 0
	ptr := make([]int32, nv+1)
	for _, row := range m.rows {
		nnz += len(row)
		for _, t := range row {
			ptr[t.Var+1]++
		}
	}
	for j := 0; j < nv; j++ {
		ptr[j+1] += ptr[j]
	}
	idx, coef := make([]int32, nnz), make([]float64, nnz)
	fill := append([]int32(nil), ptr[:nv]...)
	for i, row := range m.rows {
		for _, t := range row {
			idx[fill[t.Var]], coef[fill[t.Var]] = int32(i), t.Coef
			fill[t.Var]++
		}
	}
	ps.varRowPtr, ps.varRowIdx, ps.varRowCoef = ptr, idx, coef
}

// reducedCostAt computes c_j - y·A_j over the original rows.
func (m *Model) reducedCostAt(ps *presolveState, dual []float64, j int) float64 {
	d := m.obj[j]
	for p := ps.varRowPtr[j]; p < ps.varRowPtr[j+1]; p++ {
		d -= dual[ps.varRowIdx[p]] * ps.varRowCoef[p]
	}
	return d
}

// recoverSingletonDuals assigns duals to dropped singleton rows. A
// variable whose reduced cost (under the duals recovered so far) is
// dual-infeasible for its position against the *original* bounds must be
// resting on an implied bound instead; the singleton row that supplied
// that bound takes the reduced cost back as its dual, driving the
// variable's reduced cost to zero — exactly the complementary-slackness
// transfer the reduction performed in reverse.
//
// Processing order matters: a dropped singleton row contains, besides its
// own variable, only variables removed *earlier* (they had to be fixed for
// the row to become singleton). Handling kept variables first and removed
// variables in reverse removal order therefore guarantees each variable's
// reduced cost is final when inspected.
func (m *Model) recoverSingletonDuals(ps *presolveState, sol *Solution) {
	nv := m.NumVars()
	// absorbers: per variable, the dropped singleton rows that can take
	// its reduced cost, discovered from the drop recipe.
	type absorber struct {
		row  int
		next int // index into the shared list, -1 terminates
	}
	head := make([]int, nv)
	for j := range head {
		head[j] = -1
	}
	var list []absorber
	for i, d := range ps.drops {
		if d.kind == dropSingletonFix || (d.kind == dropSingletonBnd && d.strict) {
			list = append(list, absorber{row: i, next: head[d.v]})
			head[d.v] = len(list) - 1
		}
	}
	if len(list) == 0 {
		return
	}

	// absorb moves variable j's residual reduced cost d into one of its
	// absorber rows: an equality row takes any sign, an inequality row
	// only the bound direction it implied, and only when the variable
	// actually sits on that bound.
	absorb := func(j int, wantUp bool, d float64) {
		x := sol.X[j]
		for k := head[j]; k >= 0; k = list[k].next {
			i := list[k].row
			rd := ps.drops[i]
			if rd.kind == dropSingletonFix {
				sol.Dual[i] += d / rd.coef
				return
			}
			if rd.atUp == wantUp && math.Abs(x-rd.bound) <= presolveFeasTol*(1+math.Abs(x)) {
				sol.Dual[i] += d / rd.coef
				return
			}
		}
	}

	process := func(j int) {
		if head[j] < 0 {
			return
		}
		d := m.reducedCostAt(ps, sol.Dual, j)
		x := sol.X[j]
		tol := presolveFeasTol * (1 + math.Abs(x))
		dTol := 1e-9 * (1 + math.Abs(m.obj[j]))
		// Direction the objective wants to move x_j, in model orientation.
		improvingUp := d > dTol
		improvingDown := d < -dTol
		if !m.maximize {
			improvingUp, improvingDown = improvingDown, improvingUp
		}
		switch {
		case improvingUp && !(x >= m.up[j]-tol): // blocked above by an implied bound
			absorb(j, true, d)
		case improvingDown && !(x <= m.lo[j]+tol): // blocked below by an implied bound
			absorb(j, false, d)
		}
	}

	for j := 0; j < nv; j++ {
		if !ps.removed[j] {
			process(j)
		}
	}
	for k := len(ps.removeOrder) - 1; k >= 0; k-- {
		process(ps.removeOrder[k])
	}
}
