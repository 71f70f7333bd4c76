package lp

import (
	"errors"
	"math"
	"slices"
	"time"
)

// entry is one nonzero of a sparse column.
type entry struct {
	row int
	val float64
}

// standard is the standardized computational form of a Model:
//
//	minimize c·x  subject to  A x = b,  0 ≤ x ≤ up,  b ≥ 0,
//
// where columns include structural variables, slack/surplus logicals, and
// phase-1 artificials. Structural column j is model variable j shifted by
// its lower bound (which the model guarantees is finite): the variable's
// value is lo[j] + x[j].
type standard struct {
	m, n  int
	large bool // m >= LargeModelRows: the one size decision, see there
	cols  [][]entry
	c     []float64 // phase-2 costs (minimization)
	up    []float64 // upper bounds (lower bounds are all 0)
	b     []float64
	art   []bool // artificial columns (excluded from phase 2 pricing)
	nArt  int    // number of artificial columns, all basic in basisInit
	sig   uint64 // fingerprint of the layout and matrix (warm-basis matching)

	basisInit []int // initial basic column per row (slack or artificial)

	rowSign []float64 // +1, or -1 if the row was negated to make b >= 0
}

// standardized returns the model's standardized form, reusing the cached
// one when only data (objective, rhs, bounds) changed since it was built.
// The refresh recomputes every data-dependent float with the exact same
// expressions standardize uses, so a patched form is bit-identical to a
// freshly built one — re-solves through the cache reproduce the uncached
// pivot sequence byte for byte.
func (m *Model) standardized() (*standard, error) {
	if m.std != nil && m.refreshStandard(m.std) {
		return m.std, nil
	}
	std, err := m.standardize()
	if err != nil {
		return nil, err
	}
	m.std = std
	return std, nil
}

// refreshStandard re-derives the data-dependent parts (costs, upper
// bounds, rhs) of a cached standardization in place, without
// allocating. It reports false when an edit invalidated the cached
// structure — a row's rhs normalization sign flipped — in which case the
// caller must rebuild from scratch.
// Matrix entries, column layout, and the artificial pattern are untouched,
// so the stored signature stays valid and warm bases keep matching across
// refreshes.
func (m *Model) refreshStandard(s *standard) bool {
	objSign := 1.0
	if m.maximize {
		objSign = -1
	}
	for j, c := range m.obj {
		s.up[j] = m.up[j] - m.lo[j]
		s.c[j] = objSign * c
	}
	for i := range m.rows {
		rhs := m.rhs[i]
		for _, t := range m.rows[i] {
			rhs -= t.Coef * m.lo[t.Var]
		}
		want := 1.0
		if rhs < 0 || crashRow(s.large, m.senses[i], rhs) {
			want = -1
		}
		if want != s.rowSign[i] {
			return false
		}
		s.b[i] = want * rhs
	}
	return true
}

// crashRow is the logical crash of the paper-scale path: a ≥ row whose
// shifted right-hand side is exactly zero is satisfied by the all-at-lower
// start, so it is standardized as the ≤ row its negation is (rowSign -1,
// exactly like a negative right-hand side) and starts on its own slack —
// no surplus/artificial pair, no degenerate pivot to swap the artificial
// out. Large models only, so small ones keep their pinned standard form;
// refreshStandard applies the same rule, so an edit that moves such a
// right-hand side between zero and positive is a structure change (the
// artificial pattern differs) and rebuilds.
func crashRow(large bool, sense Sense, rhs float64) bool {
	return large && sense == GE && rhs == 0
}

// standardize converts the model into computational form.
func (m *Model) standardize() (*standard, error) {
	nr := m.NumRows()
	s := &standard{
		m:       nr,
		large:   nr >= LargeModelRows,
		rowSign: make([]float64, nr),
		b:       make([]float64, nr),
	}
	addCol := func(up, cost float64) int {
		s.cols = append(s.cols, nil)
		s.up = append(s.up, up)
		s.c = append(s.c, cost)
		s.art = append(s.art, false)
		return len(s.cols) - 1
	}

	objSign := 1.0
	if m.maximize {
		objSign = -1
	}

	// Structural columns: x = lo + x',  x' in [0, up-lo].
	for j, c := range m.obj {
		addCol(m.up[j]-m.lo[j], objSign*c)
	}

	// Rows: substitute the variable transforms, then normalize b >= 0.
	type rowData struct {
		terms []entry // over standardized columns
		sense Sense
		rhs   float64
	}
	rows := make([]rowData, nr)
	for i := 0; i < nr; i++ {
		rd := rowData{sense: m.senses[i], rhs: m.rhs[i]}
		for _, t := range m.rows[i] {
			rd.rhs -= t.Coef * m.lo[t.Var]
			rd.terms = append(rd.terms, entry{row: int(t.Var), val: t.Coef})
		}
		s.rowSign[i] = 1
		if rd.rhs < 0 || crashRow(s.large, rd.sense, rd.rhs) {
			s.rowSign[i] = -1
			rd.rhs = -rd.rhs
			for k := range rd.terms {
				rd.terms[k].val = -rd.terms[k].val
			}
			switch rd.sense {
			case LE:
				rd.sense = GE
			case GE:
				rd.sense = LE
			}
		}
		rows[i] = rd
	}

	// Emit structural coefficients into sparse columns.
	for i, rd := range rows {
		s.b[i] = rd.rhs
		for _, t := range rd.terms {
			col := t.row // reused field: column index here
			s.cols[col] = append(s.cols[col], entry{row: i, val: t.val})
		}
	}
	// Coalesce duplicate row entries within each column (duplicates can
	// only arise from duplicate vars, already merged, so this is cheap
	// defensive normalization).
	for j := range s.cols {
		s.cols[j] = coalesce(s.cols[j])
	}

	// Logicals and artificials; initial basis.
	s.basisInit = make([]int, nr)
	for i, rd := range rows {
		switch rd.sense {
		case LE:
			sl := addCol(Inf, 0)
			s.cols[sl] = []entry{{row: i, val: 1}}
			s.basisInit[i] = sl
		case GE:
			su := addCol(Inf, 0)
			s.cols[su] = []entry{{row: i, val: -1}}
			a := addCol(Inf, 0)
			s.cols[a] = []entry{{row: i, val: 1}}
			s.art[a] = true
			s.nArt++
			s.basisInit[i] = a
		case EQ:
			a := addCol(Inf, 0)
			s.cols[a] = []entry{{row: i, val: 1}}
			s.art[a] = true
			s.nArt++
			s.basisInit[i] = a
		default:
			return nil, errors.New("lp: unknown constraint sense")
		}
	}
	s.n = len(s.cols)
	s.sig = s.fingerprint()
	return s, nil
}

// coalesce sums entries sharing a row and drops zeros.
func coalesce(es []entry) []entry {
	if len(es) <= 1 {
		return es
	}
	seen := make(map[int]int, len(es))
	out := es[:0]
	for _, e := range es {
		if k, ok := seen[e.row]; ok {
			out[k].val += e.val
			continue
		}
		seen[e.row] = len(out)
		out = append(out, e)
	}
	final := out[:0]
	for _, e := range out {
		if e.val != 0 {
			final = append(final, e)
		}
	}
	return final
}

// result is the raw simplex outcome over standardized columns.
type result struct {
	status    Status
	x         []float64 // per standardized column
	y         []float64 // per row (duals of the minimization problem)
	iters     int
	refactors int          // basis refactorizations performed
	phase     PhaseTimings // per-phase wall-clock breakdown
	warm      bool         // a supplied warm basis was actually used
	pricing   pricingRule  // entering rule the final phase ran with
	basis     *Basis       // terminal basis (Optimal and Infeasible outcomes)
	// artificials counts the artificial columns basic at the cold start (0
	// on a warm solve); recoveries counts singular refactorizations repaired
	// from the snapshot (see state.recover).
	artificials, recoveries int
}

// state is the revised-simplex working state. The basis representation
// lives behind the factor kernel (the sparse LU; tests swap in a dense
// inverse as the differential oracle); the state owns the bookkeeping
// arrays and scratch vectors the pivot loops share.
type state struct {
	std           *standard
	fac           factor    // basis representation: B⁻¹ as FTRAN/BTRAN/update
	basis         []int     // basic column per row
	basePos       []int     // column -> basis row + 1, 0 if nonbasic, -1 if nonbasic and barred (see recover)
	atUpper       []bool    // nonbasic-at-upper flag per column
	xB            []float64 // basic variable values
	wBuf          []float64 // scratch: B⁻¹·A_q, reused every pivot
	yBuf          []float64 // scratch: duals, reused across refactors
	rhoBuf        []float64 // scratch: a row of B⁻¹ (dual updates, ratio tests)
	wNz           []int32   // nonzero positions of wBuf
	rhoNz         []int32   // nonzero rows of rhoBuf
	cbBuf         []float64 // scratch: basic costs / right-hand sides
	flipped       []int32   // scratch: rows bound flips moved since the last clamp (see optimize)
	cand          []int     // partial-pricing candidate list
	cursor        int       // partial-pricing scan position
	iters         int
	refactors     int // refactorizations performed (telemetry for SolveStats)
	maxIter       int
	refactorEvery int
	// Singular-refactorization recovery (see recover): the basis and bound
	// flags as of the last point known to factorize — a pivot loop's entry
	// or a successful refactorization — the column that entered last since
	// then and the one barred from entering after a recovery (both column+1,
	// 0 = none), whether this snapshot has been fallen back on already, and
	// the tally for SolveStats.
	snapBasis         []int
	snapUpper         []bool
	lastEnter, barred int
	retried           bool
	recoveries        int
	// deadline is the wall-clock cutoff from Options.TimeBudget (zero
	// value = unlimited), checked between pivots and inside
	// refactorizations.
	deadline time.Time
	// bOrig holds the standardization's pristine right-hand side while the
	// staged start's perturbed copy is swapped into std.b (nil otherwise).
	bOrig []float64

	// pricing is the resolved entering-variable rule for the current
	// optimize call (pricingDantzig = classic Dantzig/partial hybrid).
	pricing pricingRule

	// Devex pricing state (allocated on first use). dRed maintains every
	// column's reduced cost incrementally across pivots — refreshed from
	// scratch at refactorization points — and dvxW holds the Forrest–
	// Goldfarb reference weights, reset to 1 whenever the reference
	// framework is rebuilt (refactorization, or weight blow-up).
	dRed []float64
	dvxW []float64

	// Partial devex state (wide models only, see devexPartialMinCols).
	// dvxCand is the candidate subset collected by the last full sweep,
	// dvxSweep counts down the pivots left before the next full sweep,
	// and dvxSweeps tallies full sweeps for telemetry and tests.
	dvxCand   []int32
	dvxSweep  int
	dvxSweeps int

	// Row-wise copy of the standardized matrix (CSR over constraint rows),
	// built lazily for devex pricing and artificial expulsion: the pivot row
	// alpha = rho·A is assembled by scattering each nonzero row of rho
	// through its matrix row instead of n column dot products.
	rowPtr []int32
	rowCol []int32
	rowVal []float64
	// Pivot-row scratch: alphaBuf is dense over columns, alphaNz lists the
	// (deduplicated) touched columns, alphaMark backs the dedup.
	alphaBuf  []float64
	alphaNz   []int32
	alphaMark []bool

	// phase accumulates the per-phase wall-clock breakdown. Each leaf
	// operation (pricing scan, FTRAN, BTRAN, refactorization) stamps its
	// own elapsed time, so nested calls never double-count: dRedRefresh's
	// BTRAN lands in btran, only its maintenance sweep lands in pricing.
	phase PhaseTimings
}

// timedOut reports whether the wall-clock budget has expired. The check
// runs once per pivot, so the time.Now call is noise even on small models.
func (st *state) timedOut() bool {
	return expired(st.deadline)
}

// limitStatus names the budget a stage ran out of: the pivot budget when
// it is spent, the wall clock otherwise.
func (st *state) limitStatus() Status {
	if st.iters >= st.maxIter {
		return IterLimit
	}
	return TimeLimit
}

// solve runs phase 1 then phase 2 and extracts primal and dual values.
// With a usable Options.WarmBasis, phase 1 is skipped entirely and phase 2
// starts from the supplied basis.
func (std *standard) solve(opts Options) result {
	m := std.m
	st := &state{
		std:           std,
		basis:         make([]int, m),
		basePos:       make([]int, std.n),
		atUpper:       make([]bool, std.n),
		xB:            make([]float64, m),
		wBuf:          make([]float64, m),
		yBuf:          make([]float64, m),
		rhoBuf:        make([]float64, m),
		cbBuf:         make([]float64, m),
		maxIter:       iterBudget(std.n, std.m),
		refactorEvery: forceRefactorEvery,
	}
	if opts.TimeBudget > 0 {
		st.deadline = time.Now().Add(opts.TimeBudget)
	}
	// No reset: coldInit installs the identity, a warm install a clone.
	st.fac = newFactor(std.large)
	if st.refactorEvery <= 0 {
		st.refactorEvery = st.fac.refactorEvery()
	}
	// The staged start may swap a perturbed right-hand side into the cached
	// standardization; whatever path the solve exits through, the pristine
	// slice goes back so later solves start from unperturbed data.
	defer st.restoreB()

	warm := false
	if opts.WarmBasis.matches(std) {
		switch st.installWarm(opts.WarmBasis) {
		case warmPrimal:
			warm = true
		case warmRepair:
			// Any RHS change typically knocks the old basis primal
			// infeasible (xB = B⁻¹b sees every perturbation through the
			// inverse) while leaving it dual feasible (reduced costs do
			// not depend on b). A short dual-simplex cleanup restores
			// primal feasibility in a few pivots; if it cannot, the solve
			// falls back cold below.
			warm = st.dualCleanup()
		}
	}

	res := st.phases(warm)
	if res.status == Singular && warm {
		// The recovery rung could not repair a basis the warm start led to:
		// retry cold, once, inside the same iteration and time budgets.
		res = st.phases(false)
	}
	if res.status != Optimal {
		return res
	}
	res.basis = st.capture()
	res.x = make([]float64, std.n)
	for j := range res.x {
		if st.atUpper[j] {
			res.x[j] = std.up[j]
		}
	}
	for i, j := range st.basis {
		res.x[j] = st.xB[i]
	}
	res.y = append([]float64(nil), st.duals(std.c)...)
	return res
}

// phases runs the solve proper from the state solve prepared — a warm-
// installed basis, or nothing (cold) — through phase 1 (skipped when warm)
// and phase 2, and reports the outcome without the solution vectors.
func (st *state) phases(warm bool) result {
	std := st.std
	outcome := func(status Status) result {
		r := result{status: status, iters: st.iters, refactors: st.refactors,
			phase: st.phase, warm: warm, pricing: st.pricing, recoveries: st.recoveries}
		if !warm {
			r.artificials = std.nArt
		}
		return r
	}

	// Resolve the entering rule: the classic Dantzig/partial hybrid except on
	// large cold solves, where devex pays for its maintained state many times
	// over. The size gate doubles as the byte-identity shield: every golden-
	// trace model sits below it, and warm re-solves (a handful of pivots,
	// sequences pinned by the golden suite) stay on the classic rule.
	st.pricing = forcePricing
	if st.pricing == "" {
		st.pricing = pricingDantzig
		if std.large && !warm {
			st.pricing = pricingDevex
		}
	}

	if warm {
		// The basis is now primal feasible, so phase 1 is unnecessary;
		// basic artificials (all verified ~0) are expelled where possible,
		// exactly as after a cold phase 1.
		for _, j := range st.basis {
			if std.art[j] {
				st.expelArtificials()
				break
			}
		}
	} else {
		st.coldInit()

		// Phase 1: make the basis primal feasible. Large LPs take the
		// staged route (relax the infeasible rows, optimize the real
		// objective, repair with the dual simplex); if it declines or
		// fails, and always on small LPs, the classic artificial-cost
		// phase 1 decides feasibility.
		staged := false
		if std.large {
			switch st.stagedStart() {
			case stagedDone:
				staged = true
			case stagedTimeout:
				return outcome(st.limitStatus())
			case stagedFallback:
				st.restoreB()
				st.coldInit()
			}
		}
		if !staged {
			// Classic phase 1: minimize the sum of artificial values.
			needPhase1 := false
			c1 := make([]float64, std.n)
			for j, isArt := range std.art {
				if isArt {
					c1[j] = 1
					needPhase1 = true
				}
			}
			if needPhase1 {
				status := st.optimize(c1, false)
				if status == IterLimit || status == TimeLimit || status == Singular {
					return outcome(status)
				}
				infeas := 0.0
				for i, j := range st.basis {
					if std.art[j] {
						infeas += st.xB[i]
					}
				}
				if infeas > 1e-7 {
					res := outcome(Infeasible)
					res.basis = st.capture()
					return res
				}
				st.expelArtificials()
			}
		}
	}

	// Phase 2: the real objective, artificials locked out of pricing.
	return outcome(st.optimize(std.c, true))
}

// coldInit resets the state to the slack/artificial identity basis. It is
// also the recovery path after a failed warm install or staged start, both
// of which leave the state dirty.
func (st *state) coldInit() {
	std := st.std
	copy(st.basis, std.basisInit)
	st.indexBasis()
	for j := range st.atUpper {
		st.atUpper[j] = false
	}
	st.fac.reset(std.m)
	copy(st.xB, std.b)
}

// indexBasis rebuilds basePos from basis.
func (st *state) indexBasis() {
	for j := range st.basePos {
		st.basePos[j] = 0
	}
	for i, j := range st.basis {
		st.basePos[j] = i + 1
	}
}

// LargeModelRows is the one row count at which a model stops being small.
// Below it every choice is the one the golden-trace suite pins — eta-file
// kernel with ascending nonzero lists, the Dantzig/partial hybrid with a
// shallow candidate list, the absolute ratio-test pivot tolerance, the
// per-pivot clamp over every row, the classic artificial-cost phase 1 — all
// cheap at that size. From it on the solver switches together to
// Forrest–Tomlin, devex on cold solves, a deep candidate list, the relative
// pivot tolerance, the logical crash and the staged cold start: phase 1
// degenerates badly on the equality-heavy staircase LPs this solver
// targets. Both sizes take their pivot vectors as nonzero lists.
// standardize makes the comparison, once, and the rest of the package reads
// standard.large. Exported because sched.Instance.Build selects its build
// mode on the same count: a model is large in both layers or neither.
const LargeModelRows = 4096

// optTol is the simplex's feasibility and optimality tolerance.
const optTol = 1e-9

type stagedOutcome int

const (
	// stagedDone: the basis is primal feasible and phase-2 optimal work has
	// already happened; proceed straight to the final phase 2.
	stagedDone stagedOutcome = iota
	// stagedFallback: the staged route could not certify feasibility
	// (numerics, unboundedness of the relaxation, or a failed dual
	// cleanup). The state is dirty; re-init and run classic phase 1.
	stagedFallback
	// stagedTimeout: the time or iteration budget expired mid-stage.
	stagedTimeout
)

// stagedPerturb scales the staged start's deterministic right-hand-side
// perturbation and artificial-cap headroom. It sits in the gap between the
// pivot tolerance (1e-9: perturbed ratio-test steps register as
// nondegenerate, so the stall counter resets and Bland's rule stays off)
// and the primal feasibility tolerance (warmFeasTol, 1e-7: the residue the
// perturbation leaves behind is below what any feasibility check — the
// dual cleanup's included — can see).
const stagedPerturb = 1e-8

// perturbB replaces std.b with a deterministically perturbed copy
// (b_i + stagedPerturb·u_i, u_i ∈ [1,2) from a per-row hash), parking the
// pristine slice in st.bOrig; restoreB undoes the swap. The perturbation
// splits the massively degenerate vertices these staircase LPs start from:
// nearly every ratio-test step becomes strictly positive, which keeps the
// stall counter quiet and lets real pricing run instead of Bland's rule.
// The solve's result is the perturbed problem's optimum — feasible for the
// original data to within stagedPerturb·2, far inside every tolerance in
// the stack — and the perturbation is not undone mid-solve; captured bases
// reinstall against the pristine b, where the residue lands below
// warmFeasTol and vanishes in the install clamp.
func (st *state) perturbB() {
	if st.bOrig != nil {
		return
	}
	std := st.std
	st.bOrig = std.b
	bp := make([]float64, len(std.b))
	h := uint64(0x9E3779B97F4A7C15)
	for i, v := range std.b {
		h ^= uint64(i)*0xBF58476D1CE4E5B9 + (h << 13) + (h >> 7)
		u := 1 + float64(h>>40)/float64(1<<24) // deterministic, in [1, 2)
		bp[i] = v + stagedPerturb*u
	}
	std.b = bp
}

// restoreB swaps the pristine right-hand side back in (no-op when no
// perturbation is active). The cached standardization must never leak a
// perturbed b into a later solve, which would compound the perturbation.
func (st *state) restoreB() {
	if st.bOrig != nil {
		st.std.b = st.bOrig
		st.bOrig = nil
	}
}

// stagedStart replaces the artificial-cost phase 1 on large LPs. The slack/
// artificial basis is infeasible only on rows whose artificial starts at a
// positive value (GE/EQ rows with positive normalized rhs). Stage A keeps
// every basic artificial basic but caps it just above its starting value —
// an honest relaxation of the violated rows, with enough headroom that
// pivots through the row are nondegenerate — and optimizes the *real*
// objective, so no work is wasted on a throwaway phase-1 cost. Stage B
// restores the caps (artificials must return to zero, up to tolerance) and
// lets the bounded-variable dual simplex repair primal feasibility,
// exactly as a warm start repairs an RHS change. The artificial upper
// bounds live in std.up only between the two stages and are always
// restored to +Inf before returning, so the cached standardization stays
// clean.
func (st *state) stagedStart() stagedOutcome {
	std := st.std
	st.perturbB()
	copy(st.xB, std.b)
	relaxed := make([]int, 0, 256)
	h := uint64(0x2545F4914F6CDD1D)
	for i, j := range st.basis {
		if std.art[j] && st.xB[i] > 0 {
			h ^= uint64(i)*0xBF58476D1CE4E5B9 + (h << 13) + (h >> 7)
			u := 1 + float64(h>>40)/float64(1<<24)
			std.up[j] = st.xB[i] + stagedPerturb*u
			relaxed = append(relaxed, j)
		}
	}
	restore := func() {
		for _, j := range relaxed {
			std.up[j] = Inf
		}
	}
	if len(relaxed) > 0 {
		// Stage A: optimize the relaxation. Artificials never enter the
		// basis (skipArt), and the ones already basic are held inside
		// [0, start+headroom] by their temporary bounds.
		switch st.optimize(std.c, true) {
		case Optimal:
		case TimeLimit, IterLimit:
			restore()
			return stagedTimeout
		default:
			restore()
			return stagedFallback
		}
		// Stage B: pull the relaxation out. A relaxed artificial that went
		// nonbasic-at-upper rests at a positive value; flipping it to the
		// lower bound (zero) re-tightens its row, and the recompute folds
		// that into xB. Basic relaxed artificials above tolerance become
		// primal infeasibilities for the dual cleanup to drive out — on
		// rows that were only infeasible by the perturbation there is
		// nothing visible to repair, so the cleanup's work is proportional
		// to the genuinely violated rows.
		restore()
		for _, j := range relaxed {
			if st.atUpper[j] {
				st.atUpper[j] = false
			}
		}
		st.recomputeXB()
		if !st.dualCleanup() {
			if st.timedOut() || st.iters >= st.maxIter {
				return stagedTimeout
			}
			return stagedFallback
		}
	}
	// Feasible (possibly from the start). Basic artificials remain at zero:
	// they are excluded from pricing, and the ratio test holds every basic
	// artificial to an effective upper bound of zero, so — unlike
	// expelArtificials, which is quadratic and unaffordable at this scale —
	// leaving them in place is safe.
	return stagedDone
}

// duals computes y = c_B·B⁻¹ via BTRAN into the reusable scratch buffer.
func (st *state) duals(costs []float64) []float64 {
	t0 := time.Now()
	for i, j := range st.basis {
		st.cbBuf[i] = costs[j]
	}
	st.fac.btran(st.cbBuf, st.yBuf)
	st.phase.BtranNs += int64(time.Since(t0))
	return st.yBuf
}

// rowOfInverse computes row r of B⁻¹ (eᵣᵀB⁻¹) into the rho scratch buffer
// and its nonzero rows into rhoNz (valid until the next rowOfInverse call;
// wBuf is independent, so a tableau column and a rho row can coexist).
func (st *state) rowOfInverse(r int) []float64 {
	t0 := time.Now()
	st.rhoNz = st.fac.btranUnitNz(r, st.rhoBuf, st.rhoNz)
	st.phase.BtranNs += int64(time.Since(t0))
	return st.rhoBuf
}

// expelArtificials pivots basic artificials (all at value ~0 after a
// feasible phase 1) out of the basis where possible. Rows whose artificial
// cannot be replaced are linearly dependent; their artificial stays basic
// at zero and is excluded from phase-2 pricing, which keeps it at zero.
func (st *state) expelArtificials() {
	std := st.std
	st.ensureRowA()
	for i := 0; i < std.m; i++ {
		j := st.basis[i]
		if !std.art[j] {
			continue
		}
		// Find a nonbasic-at-lower, non-artificial column with a usable
		// pivot in row i of the tableau: alpha = (B⁻¹ row i) · A_col.
		// Columns resting at their upper bound are skipped because the
		// entering variable keeps the leaving artificial's zero value. Only
		// a column meeting one of rho's nonzero rows can have a nonzero
		// alpha: pivotRow gathers those, and they are visited in column
		// order, each alpha summed down its column, as a scan of every
		// column would.
		rho := st.rowOfInverse(i)
		st.pivotRow(rho)
		slices.Sort(st.alphaNz)
		for _, c := range st.alphaNz {
			col := int(c)
			if std.art[col] || st.basePos[col] != 0 || st.atUpper[col] {
				continue
			}
			alpha := 0.0
			for _, e := range std.cols[col] {
				alpha += rho[e.row] * e.val
			}
			if math.Abs(alpha) < 1e-7 {
				continue
			}
			w := st.ftranCol(col)
			st.applyPivot(col, i, w)
			break
		}
	}
}

// ftranCol returns w = B⁻¹·A_q in the reusable scratch buffer and its
// nonzero positions in st.wNz (valid until the next call; every pivot
// consumes it immediately). The list's order is the kernel's: ascending on
// the eta kernel, so a small model's ratio-test ties and eta entry order are
// exactly the dense loop's, and descending logical order on Forrest–Tomlin,
// where they only have to be reproducible and sorting measurably dominated
// the per-pivot cost.
func (st *state) ftranCol(q int) []float64 {
	t0 := time.Now()
	st.wNz = st.fac.ftranColNz(st.std.cols[q], st.wBuf, st.wNz)
	st.phase.FtranNs += int64(time.Since(t0))
	return st.wBuf
}

// applyPivot performs the product-form basis update for entering column q
// at row r with tableau column w, and fixes the bookkeeping arrays.
func (st *state) applyPivot(q, r int, w []float64) {
	st.fac.updateNz(r, w, st.wNz)
	leaving := st.basis[r]
	st.basePos[leaving] = 0
	st.basis[r] = q
	st.basePos[q] = r + 1
	st.atUpper[q] = false
	st.lastEnter = q + 1
}

// refactor rebuilds the basis representation from the basis columns, then
// recomputes xB and snapshots the basis. A basis that turns out singular is
// a numerical event, not a budget event: recover gets one try at it before
// the outcome is reported. Outcomes other than refactorOK leave xB stale;
// callers must abort the pivot loop. After refactorOK the basis may be the
// recovered one, so callers re-derive whatever they hold from it (duals,
// reduced costs), as they must after any refactorization.
func (st *state) refactor() refactorOutcome {
	st.refactors++
	t0 := time.Now()
	out := st.fac.refactorize(st.std, st.basis, st.deadline)
	if out == refactorOK {
		st.recomputeXB()
		st.snapshot()
	}
	st.phase.RefactorNs += int64(time.Since(t0))
	if out == refactorSingular && st.lastEnter != 0 && !st.retried {
		out = st.recover()
	}
	return out
}

// snapshot records the basis and bound flags as a point recover can return
// to: taken at every pivot loop's entry (whose contract is a factorized,
// stage-consistent basis) and after every successful refactorization,
// O(m+n) each. A fresh snapshot lifts the bar a recovery left behind.
func (st *state) snapshot() {
	st.snapBasis = append(st.snapBasis[:0], st.basis...)
	st.snapUpper = append(st.snapUpper[:0], st.atUpper...)
	st.unbar()
	st.lastEnter, st.retried = 0, false
}

// recover answers a singular refactorization: the pivots since the snapshot
// are dropped, the snapshot's basis is reinstalled and refactorized (it
// factorized when it was taken), and the column that entered last — the
// pivot the update scheme choked on — is barred from entering again until
// the next snapshot or until nothing else prices out: its basePos reads -1,
// which every pricing loop and dual ratio test takes for "not a candidate".
// One try per snapshot; a second singular outcome is reported.
func (st *state) recover() refactorOutcome {
	culprit := st.lastEnter - 1
	copy(st.basis, st.snapBasis)
	copy(st.atUpper, st.snapUpper)
	st.indexBasis()
	st.lastEnter = 0
	out := st.refactor()
	if out == refactorOK {
		st.recoveries++
		st.retried = true
		if st.basePos[culprit] == 0 {
			st.barred, st.basePos[culprit] = culprit+1, -1
		}
	}
	return out
}

// unbar makes the column recover barred an entering candidate again.
func (st *state) unbar() {
	if st.barred != 0 && st.basePos[st.barred-1] < 0 {
		st.basePos[st.barred-1] = 0
	}
	st.barred = 0
}

// recomputeXB sets xB = B⁻¹·(b - sum of nonbasic-at-upper columns).
func (st *state) recomputeXB() {
	std := st.std
	rhs := st.cbBuf
	copy(rhs, std.b)
	for j := 0; j < std.n; j++ {
		if !st.atUpper[j] || st.basePos[j] > 0 { // a barred column (-1) is nonbasic
			continue
		}
		u := std.up[j]
		for _, e := range std.cols[j] {
			rhs[e.row] -= e.val * u
		}
	}
	st.fac.ftranDense(rhs, st.xB)
}

// reducedCost computes the reduced cost of column j under duals y.
func (st *state) reducedCost(costs, y []float64, j int) float64 {
	d := costs[j]
	for _, e := range st.std.cols[j] {
		d -= y[e.row] * e.val
	}
	return d
}

// violation maps a nonbasic column's reduced cost to its pricing
// violation: positive when entering the column improves the objective
// (rising from lower, or falling from upper), zero otherwise.
func (st *state) violation(j int, d float64) (viol float64, fromUpper bool) {
	if st.atUpper[j] {
		if d > optTol {
			return d, true
		}
	} else if d < -optTol {
		return -d, false
	}
	return 0, false
}

// pricePartial is candidate-list partial pricing: surviving candidates
// from earlier scans are re-priced first and the most violated one enters;
// only when the list drains does the scan resume from a rotating cursor,
// in chunks, stopping as soon as a chunk yields violations. A full wrap
// with no violation proves optimality under the current duals — the same
// certificate the full Dantzig scan gives, at a fraction of the
// per-iteration cost on wide LPs.
func (st *state) pricePartial(costs, y []float64, skipArt bool) (q int, fromUpper bool, qD float64) {
	t0 := time.Now()
	defer func() { st.phase.PricingNs += int64(time.Since(t0)) }()
	std := st.std
	kept := st.cand[:0]
	q = -1
	var qViol float64
	for _, j := range st.cand {
		if st.basePos[j] != 0 {
			continue
		}
		d := st.reducedCost(costs, y, j)
		viol, fu := st.violation(j, d)
		if viol == 0 {
			continue
		}
		kept = append(kept, j)
		if viol > qViol {
			q, qViol, fromUpper, qD = j, viol, fu, d
		}
	}
	st.cand = kept
	if q >= 0 {
		return q, fromUpper, qD
	}
	// Candidate-list sizing. Large models keep a much deeper list: refills
	// there cost a scan of tens of thousands of columns, and a deep list
	// keeps pricing quality close to full Dantzig between refills, which on
	// the paper-scale staircase LPs cuts total pivots by a large factor.
	// Small models keep the original shallow list — their pivot sequences
	// are pinned by the golden-trace suite.
	candCap := 32
	if std.large {
		candCap = 256
	}
	chunk := std.n / 8
	if chunk < 64 {
		chunk = 64
	}
	for scanned := 0; scanned < std.n; {
		stop := scanned + chunk
		if stop > std.n {
			stop = std.n
		}
		for ; scanned < stop; scanned++ {
			j := st.cursor
			st.cursor++
			if st.cursor >= std.n {
				st.cursor = 0
			}
			if st.basePos[j] != 0 || (skipArt && std.art[j]) {
				continue
			}
			d := st.reducedCost(costs, y, j)
			viol, fu := st.violation(j, d)
			if viol == 0 {
				continue
			}
			if len(st.cand) < candCap {
				st.cand = append(st.cand, j)
			}
			if viol > qViol {
				q, qViol, fromUpper, qD = j, viol, fu, d
			}
		}
		if q >= 0 {
			return q, fromUpper, qD
		}
	}
	return -1, false, 0
}

// partialPricingMinCols gates candidate-list pricing: below this column
// count a full Dantzig scan is cheap relative to the basis update, and its
// better entering choices (fewest pivots) win; above it the per-iteration
// pricing cost dominates and partial pricing pays.
const partialPricingMinCols = 512

// priceDantzig is the classic full scan: the most violated column enters.
func (st *state) priceDantzig(costs, y []float64, skipArt bool) (q int, fromUpper bool, qD float64) {
	t0 := time.Now()
	defer func() { st.phase.PricingNs += int64(time.Since(t0)) }()
	std := st.std
	q = -1
	var qViol float64
	for j := 0; j < std.n; j++ {
		if st.basePos[j] != 0 || (skipArt && std.art[j]) {
			continue
		}
		d := st.reducedCost(costs, y, j)
		viol, fu := st.violation(j, d)
		if viol > qViol {
			q, qViol, fromUpper, qD = j, viol, fu, d
		}
	}
	return q, fromUpper, qD
}

// priceBland is the anti-cycling fallback: the lowest-index violated
// column enters (Bland's rule), scanning every column.
func (st *state) priceBland(costs, y []float64, skipArt bool) (q int, fromUpper bool, qD float64) {
	t0 := time.Now()
	defer func() { st.phase.PricingNs += int64(time.Since(t0)) }()
	std := st.std
	for j := 0; j < std.n; j++ {
		if st.basePos[j] != 0 || (skipArt && std.art[j]) {
			continue
		}
		d := st.reducedCost(costs, y, j)
		if viol, fu := st.violation(j, d); viol != 0 {
			return j, fu, d
		}
	}
	return -1, false, 0
}

// ensureRowA builds the row-wise (CSR) copy of the standardized matrix
// pivotRow scatters through, plus the pivot-row scratch. Built once per
// solve; the standardization's structure is immutable while a solve runs,
// so no invalidation is needed.
func (st *state) ensureRowA() {
	if st.rowPtr != nil {
		return
	}
	std := st.std
	nnz := 0
	for _, col := range std.cols {
		nnz += len(col)
	}
	ptr := make([]int32, std.m+1)
	for _, col := range std.cols {
		for _, e := range col {
			ptr[e.row+1]++
		}
	}
	for i := 0; i < std.m; i++ {
		ptr[i+1] += ptr[i]
	}
	cols := make([]int32, nnz)
	vals := make([]float64, nnz)
	fill := make([]int32, std.m)
	copy(fill, ptr[:std.m])
	// Columns are walked in ascending order, so each row's entries come out
	// sorted by column — the deterministic order every consumer relies on.
	for j, col := range std.cols {
		for _, e := range col {
			cols[fill[e.row]] = int32(j)
			vals[fill[e.row]] = e.val
			fill[e.row]++
		}
	}
	st.rowPtr, st.rowCol, st.rowVal = ptr, cols, vals
	st.alphaBuf = make([]float64, std.n)
	st.alphaMark = make([]bool, std.n)
	st.alphaNz = make([]int32, 0, 256)
}

// pivotRow assembles the tableau pivot row alpha = rho·A into alphaBuf,
// recording the touched columns in alphaNz. rho is the output of the last
// rowOfInverse call; only its nonzero rows are scattered, so the cost
// tracks the rows' fill instead of n dot products. The previous call's
// entries are cleared first, so alphaBuf stays exactly zero off the current
// list.
func (st *state) pivotRow(rho []float64) {
	for _, j := range st.alphaNz {
		st.alphaBuf[j] = 0
		st.alphaMark[j] = false
	}
	nz := st.alphaNz[:0]
	rowPtr, rowCol, rowVal := st.rowPtr, st.rowCol, st.rowVal
	alphaBuf, alphaMark := st.alphaBuf, st.alphaMark
	for _, i := range st.rhoNz {
		v := rho[i]
		if v == 0 {
			continue
		}
		for idx := rowPtr[i]; idx < rowPtr[i+1]; idx++ {
			j := rowCol[idx]
			if !alphaMark[j] {
				alphaMark[j] = true
				nz = append(nz, j)
			}
			alphaBuf[j] += v * rowVal[idx]
		}
	}
	st.alphaNz = nz
}

// dvxResetLimit bounds the devex reference weights: when the entering
// column's weight exceeds it the reference framework has drifted too far
// from the current nonbasic set and the weights reset to 1 (the classic
// devex restart). Refactorizations reset them too — the maintained reduced
// costs are refreshed there anyway, and restarting both together keeps the
// two approximations aligned with the same basis snapshot.
const dvxResetLimit = 1e7

// dRedRefresh recomputes the maintained reduced costs from scratch under
// the current basis (one BTRAN + a pass over the matrix). The reference
// weights are left alone: they carry cross-refactorization memory of the
// edge norms, which is exactly what makes devex better than Dantzig — at
// the hyper-sparse refactorization cadence (every 256 pivots), resetting
// them too would keep the rule near-Dantzig almost all the time.
func (st *state) dRedRefresh(costs []float64) {
	std := st.std
	if st.dRed == nil {
		st.dRed = make([]float64, std.n)
		st.dvxW = make([]float64, std.n)
		for j := range st.dvxW {
			st.dvxW[j] = 1
		}
	}
	y := st.duals(costs)
	t0 := time.Now()
	for j := 0; j < std.n; j++ {
		if st.basePos[j] != 0 {
			st.dRed[j] = 0
			continue
		}
		st.dRed[j] = st.reducedCost(costs, y, j)
	}
	// The refresh moved every maintained value; a stale candidate subset
	// would price against the old snapshot, so force a full sweep.
	st.dvxSweep = 0
	st.phase.PricingNs += int64(time.Since(t0))
}

// devexReset refreshes the maintained reduced costs AND restarts the devex
// reference framework (all weights back to 1, reference set = the current
// nonbasic set). Used at phase entry and on weight blow-up.
func (st *state) devexReset(costs []float64) {
	st.dRedRefresh(costs)
	for j := range st.dvxW {
		st.dvxW[j] = 1
	}
}

// devexPartialMinCols gates partial devex pricing on the columns a phase-2
// scan actually prices (structurals and logicals; artificials are locked
// out): below this count the full scan is cheap next to the basis update
// and its strictly better entering choices win (and the small-model pivot
// sequences are pinned by the golden-trace suite); above it the O(n) scan
// dominates the pivot and the rotating candidate subset pays. A var so
// tests can force either mode.
var devexPartialMinCols = 1 << 14

const (
	// dvxSweepEvery is the number of partial picks served off one
	// candidate sweep before the next full scan rebuilds the subset.
	dvxSweepEvery = 16
	// dvxCandCap bounds the candidate subset collected by a full sweep.
	dvxCandCap = 1024
	// dvxCandFrac sets the admission threshold: a sweep keeps columns
	// scoring within best/dvxCandFrac of the sweep winner.
	dvxCandFrac = 1024.0
)

// priceDevex picks the entering column maximizing violation²/weight over
// the maintained reduced costs — the devex approximation of the steepest-
// edge criterion. Narrow models run the plain O(n) scan every pivot; wide
// ones scan a candidate subset refreshed by periodic full sweeps.
func (st *state) priceDevex(skipArt bool) (q int, fromUpper bool, qD float64) {
	t0 := time.Now()
	if st.std.n-st.std.nArt >= devexPartialMinCols {
		q, fromUpper, qD = st.priceDevexPartial(skipArt)
	} else {
		q, fromUpper, qD, _ = st.priceDevexFull(skipArt)
	}
	st.phase.PricingNs += int64(time.Since(t0))
	return q, fromUpper, qD
}

// priceDevexFull is the full devex scan; it also reports the winning score
// so a collecting sweep can derive its admission threshold.
func (st *state) priceDevexFull(skipArt bool) (q int, fromUpper bool, qD, best float64) {
	std := st.std
	q = -1
	// The scan is the single hottest loop of a large cold solve, so it is
	// arranged to reject a column from the sequentially-read dRed value
	// alone wherever possible: the sign tests discard every well-priced
	// column before any other array is touched, and only genuine
	// candidates pay for the weight load and the division. The score
	// arithmetic itself is kept bit-identical to the textbook viol²/w
	// form — "cheaper" algebra (cross-multiplied comparisons) rounds
	// differently, perturbs the pivot sequence, and measurably degrades
	// the trajectory on the paper-scale models.
	dRed, dvxW := st.dRed, st.dvxW
	atUpper, basePos, art := st.atUpper, st.basePos, std.art
	for j, d := range dRed {
		var viol float64
		var fu bool
		if d < -optTol {
			if atUpper[j] {
				continue
			}
			viol = -d
		} else if d > optTol && atUpper[j] {
			viol, fu = d, true
		} else {
			continue
		}
		if basePos[j] != 0 || (skipArt && art[j]) {
			continue
		}
		if score := viol * viol / dvxW[j]; score > best {
			best, q, fromUpper, qD = score, j, fu, d
		}
	}
	return q, fromUpper, qD, best
}

// priceDevexPartial serves entering picks off the candidate subset and
// falls back to a collecting full sweep when the budget expires or the
// subset stalls (drains to no violating member). The sweep itself returns
// the exact full-scan winner — identical tie-break trajectory — so partial
// pricing can only ever defer, never change, a full scan's choice.
func (st *state) priceDevexPartial(skipArt bool) (q int, fromUpper bool, qD float64) {
	if st.dvxSweep > 0 {
		st.dvxSweep--
		if q, fromUpper, qD = st.priceDevexCand(skipArt); q >= 0 {
			return q, fromUpper, qD
		}
	}
	return st.priceDevexSweep(skipArt)
}

// priceDevexCand scans only the candidate subset, compacting out members
// that went basic or are no longer violating under the maintained reduced
// costs (the subset is rebuilt within dvxSweepEvery pivots regardless).
func (st *state) priceDevexCand(skipArt bool) (q int, fromUpper bool, qD float64) {
	std := st.std
	q = -1
	dRed, dvxW := st.dRed, st.dvxW
	atUpper, basePos, art := st.atUpper, st.basePos, std.art
	kept := st.dvxCand[:0]
	best := 0.0
	for _, jj := range st.dvxCand {
		j := int(jj)
		d := dRed[j]
		var viol float64
		var fu bool
		if d < -optTol {
			if atUpper[j] {
				continue
			}
			viol = -d
		} else if d > optTol && atUpper[j] {
			viol, fu = d, true
		} else {
			continue
		}
		if basePos[j] != 0 || (skipArt && art[j]) {
			continue
		}
		kept = append(kept, jj)
		if score := viol * viol / dvxW[j]; score > best {
			best, q, fromUpper, qD = score, j, fu, d
		}
	}
	st.dvxCand = kept
	return q, fromUpper, qD
}

// priceDevexSweep runs the full scan, then a second pass collecting every
// column scoring within best/dvxCandFrac of the winner (up to dvxCandCap,
// in column order) as the next candidate subset.
func (st *state) priceDevexSweep(skipArt bool) (q int, fromUpper bool, qD float64) {
	st.dvxSweeps++
	st.dvxSweep = dvxSweepEvery
	var best float64
	q, fromUpper, qD, best = st.priceDevexFull(skipArt)
	st.dvxCand = st.dvxCand[:0]
	if q < 0 {
		return q, fromUpper, qD
	}
	std := st.std
	thr := best / dvxCandFrac
	dRed, dvxW := st.dRed, st.dvxW
	atUpper, basePos, art := st.atUpper, st.basePos, std.art
	for j, d := range dRed {
		var viol float64
		if d < -optTol {
			if atUpper[j] {
				continue
			}
			viol = -d
		} else if d > optTol && atUpper[j] {
			viol = d
		} else {
			continue
		}
		if basePos[j] != 0 || (skipArt && art[j]) {
			continue
		}
		if viol*viol/dvxW[j] >= thr {
			st.dvxCand = append(st.dvxCand, int32(j))
			if len(st.dvxCand) == dvxCandCap {
				break
			}
		}
	}
	return q, fromUpper, qD
}

// priceBlandMaintained is Bland's rule over the maintained reduced costs
// (devex mode has no incrementally maintained duals to recompute from).
func (st *state) priceBlandMaintained(skipArt bool) (q int, fromUpper bool, qD float64) {
	t0 := time.Now()
	defer func() { st.phase.PricingNs += int64(time.Since(t0)) }()
	std := st.std
	for j := 0; j < std.n; j++ {
		if st.basePos[j] != 0 || (skipArt && std.art[j]) {
			continue
		}
		if viol, fu := st.violation(j, st.dRed[j]); viol != 0 {
			return j, fu, st.dRed[j]
		}
	}
	return -1, false, 0
}

// needsRefactor reports that the periodic cadence or the kernel's own
// growth/drift policy asks for a refactorization before the next pivot.
func (st *state) needsRefactor() bool {
	return st.fac.age() >= st.refactorEvery || st.fac.wantRefactor()
}

// dualCleanup restores primal feasibility of a warm-installed basis with
// the bounded-variable dual simplex. It requires the basis to be dual
// feasible under the phase-2 costs (which RHS-only perturbations preserve);
// each pivot expels the most primally infeasible basic variable, entering
// the column that wins the dual ratio test, until every basic value is back
// within bounds. Artificial columns are held to an effective upper bound of
// zero and never enter. It reports success; on false the state is dirty and
// the caller must fall back to a cold start. It never concludes
// infeasibility — an exhausted ratio test (dual unboundedness up to
// tolerance) also just falls back cold, where phase 1 gives the authoritative
// answer.
func (st *state) dualCleanup() bool {
	std := st.std
	m := std.m
	const pivTol = 1e-9
	const dualTol = 1e-7

	// Dual feasibility check: no nonbasic, non-artificial column may have a
	// phase-2 pricing violation. (Artificials never enter, so their reduced
	// costs are irrelevant.) dualTol is looser than the pricing tolerance
	// because the freshly refactorized basis reproduces the captured
	// optimum's duals only up to roundoff.
	y := st.duals(std.c)
	for j := 0; j < std.n; j++ {
		if st.basePos[j] != 0 || std.art[j] {
			continue
		}
		d := st.reducedCost(std.c, y, j)
		if st.atUpper[j] {
			if d > dualTol {
				return false
			}
		} else if d < -dualTol {
			return false
		}
	}

	st.snapshot()
	limit := 4*m + 100
	for iter := 0; ; iter++ {
		if iter >= limit || st.iters >= st.maxIter || st.timedOut() {
			return false
		}
		if st.needsRefactor() {
			if st.refactor() != refactorOK {
				return false
			}
			y = st.duals(std.c)
		}

		// Leaving row: the most out-of-bounds basic variable.
		r, below := -1, false
		worst := warmFeasTol
		for i := 0; i < m; i++ {
			if v := -st.xB[i]; v > worst {
				r, below, worst = i, true, v
			}
			if v := st.xB[i] - st.effUpper(st.basis[i]); v > worst {
				r, below, worst = i, false, v
			}
		}
		if r < 0 {
			// Primal feasible; clamp roundoff residue like the primal loop.
			for i := 0; i < m; i++ {
				if st.xB[i] < 0 {
					st.xB[i] = 0
				}
			}
			return true
		}

		// Dual ratio test over row r of the tableau. Eligible entering
		// columns move xB[r] toward its violated bound; among them the
		// smallest |d|/|alpha| keeps every reduced cost on its feasible
		// side after the dual update. Lowest index wins ties, keeping the
		// cleanup deterministic.
		rho := st.rowOfInverse(r)
		q, best := -1, math.Inf(1)
		for j := 0; j < std.n; j++ {
			if st.basePos[j] != 0 || std.art[j] {
				continue
			}
			alpha := 0.0
			for _, e := range std.cols[j] {
				alpha += rho[e.row] * e.val
			}
			ok := false
			if below {
				// xB[r] must increase: raising an at-lower column with
				// alpha<0, or lowering an at-upper column with alpha>0.
				ok = (!st.atUpper[j] && alpha < -pivTol) || (st.atUpper[j] && alpha > pivTol)
			} else {
				ok = (!st.atUpper[j] && alpha > pivTol) || (st.atUpper[j] && alpha < -pivTol)
			}
			if !ok {
				continue
			}
			d := st.reducedCost(std.c, y, j)
			if ratio := math.Abs(d) / math.Abs(alpha); ratio < best {
				q, best = j, ratio
			}
		}
		if q < 0 {
			return false // dual unbounded up to tolerance: let phase 1 decide
		}

		w := st.ftranCol(q)
		wTol := pivTol
		if std.large {
			// The row test above is absolute; the pivot element itself is
			// held to the column-relative tolerance optimize uses, now that
			// the column is in hand.
			wTol = relPivotTol(w, st.wNz)
		}
		if math.Abs(w[r]) < wTol {
			return false // numerically unusable pivot
		}
		sigma := 1.0
		if st.atUpper[q] {
			sigma = -1
		}
		target := 0.0
		if !below {
			target = st.effUpper(st.basis[r])
		}
		t := (st.xB[r] - target) / (sigma * w[r])
		if t < 0 {
			if t < -warmFeasTol {
				return false // eligibility and pivot sign disagree: numerics
			}
			t = 0
		}
		st.stepXB(t, sigma, w)
		enterVal := t
		if st.atUpper[q] {
			enterVal = std.up[q] - t
		}
		leavingCol := st.basis[r]
		st.applyPivot(q, r, w)
		st.xB[r] = enterVal
		// The leaving variable rests at the bound it was pushed to; an
		// artificial's "upper" bound is its lower bound, zero.
		st.atUpper[leavingCol] = !below && !std.art[leavingCol]
		st.iters++
		y = st.duals(std.c)
	}
}

// optimize runs the bounded-variable revised simplex to optimality under
// the given cost vector. When skipArt is true, artificial columns never
// enter the basis.
func (st *state) optimize(costs []float64, skipArt bool) Status {
	std := st.std
	m := std.m
	stall := 0
	devex := st.pricing == pricingDevex
	// Under classic pricing the duals are maintained incrementally across
	// pivots (y' = y + (d_q/w_r)·ρ_r with ρ_r the leaving row of the old
	// inverse) and recomputed from scratch only at refactorization points.
	// Devex maintains the reduced costs themselves instead — no duals in the
	// loop: each pivot pushes the tableau pivot row through dRed, and
	// refactorization points refresh dRed from scratch alongside the
	// reference weights.
	var y []float64
	if devex {
		st.ensureRowA()
		st.devexReset(costs)
	} else {
		y = st.duals(costs)
	}
	st.cand = st.cand[:0]
	st.snapshot()
	// A small model clamps roundoff residue on every row at every pivot.
	// Only rows whose xB moved since the last clamp can need it, so the
	// sweep covers all m only after xB was recomputed wholesale (the entry
	// state, a refactorization) and otherwise the rows bound flips moved
	// (st.flipped) plus the pivot's own — the same rows, so the same values.
	sweepAll := true
	st.flipped = st.flipped[:0]
	for {
		if st.iters >= st.maxIter {
			return IterLimit
		}
		if st.timedOut() {
			return TimeLimit
		}
		if st.needsRefactor() {
			sweepAll = true
			switch st.refactor() {
			case refactorOK:
				if devex {
					st.dRedRefresh(costs)
				} else {
					y = st.duals(costs)
				}
			case refactorTimeout:
				return TimeLimit
			default:
				return Singular
			}
		}

		// Pricing: devex when resolved on; otherwise Dantzig on narrow LPs
		// and candidate-list partial pricing on wide ones. Bland under
		// stalling in either mode.
		bland := stall > 64
		var q int
		var qD float64
		var qFromUpper bool
		switch {
		case bland && devex:
			// Bland's anti-cycling guarantee needs exact reduced-cost signs,
			// so refresh the maintained array once at the start of each stall
			// episode (it stays maintained through the episode's pivots —
			// refreshing every pick would cost a BTRAN + matrix pass per
			// degenerate pivot, and long degenerate plateaus are exactly when
			// this path runs).
			if stall == 65 {
				st.dRedRefresh(costs)
			}
			q, qFromUpper, qD = st.priceBlandMaintained(skipArt)
		case bland:
			q, qFromUpper, qD = st.priceBland(costs, y, skipArt)
		case devex:
			q, qFromUpper, qD = st.priceDevex(skipArt)
		case std.n >= partialPricingMinCols:
			q, qFromUpper, qD = st.pricePartial(costs, y, skipArt)
		default:
			q, qFromUpper, qD = st.priceDantzig(costs, y, skipArt)
		}
		if q < 0 && devex && !bland {
			// The maintained reduced costs drift with the pivot count; an
			// optimality claim is accepted only after a from-scratch refresh
			// (exact, via BTRAN) re-prices clean.
			st.dRedRefresh(costs)
			q, qFromUpper, qD = st.priceDevex(skipArt)
		}
		if q < 0 && st.barred != 0 {
			// Nothing else prices out: the barred column gets its turn
			// before optimality is claimed.
			st.unbar()
			if devex {
				st.dRedRefresh(costs)
			}
			continue
		}
		if q < 0 {
			if std.large {
				// The per-pivot clamp only visits touched rows; sweep the
				// rest before reporting the solution.
				st.clampAll()
			}
			return Optimal
		}

		// Direction: entering moves by +t from lower or -t from upper.
		sigma := 1.0
		if qFromUpper {
			sigma = -1
		}
		w := st.ftranCol(q)

		// Ratio test. Basic i changes at rate -sigma*w[i] per unit t, so only
		// w's nonzero rows can limit the step, visited in wNz's order.
		tMax := std.up[q] // bound-flip limit (up - lo, lo = 0)
		leave := -1
		leaveToUpper := false
		pivTol := 1e-9
		if std.large {
			pivTol = relPivotTol(w, st.wNz)
		}
		for _, i32 := range st.wNz {
			i := int(i32)
			r := sigma * w[i]
			jb := st.basis[i]
			if r > pivTol {
				lim := st.xB[i] / r
				if lim < 0 {
					lim = 0
				}
				if lim < tMax-1e-12 || (lim <= tMax && leave < 0) {
					tMax, leave, leaveToUpper = lim, i, false
				} else if bland && lim <= tMax+1e-12 && leave >= 0 && st.basis[i] < st.basis[leave] {
					tMax, leave, leaveToUpper = math.Min(tMax, lim), i, false
				}
				continue
			}
			// A basic artificial is held to an upper bound of zero once
			// artificials are locked out of pricing (the staged start's
			// temporary relaxation shows up here as a finite std.up cap
			// instead). On rows whose artificial survived phase 1 +
			// expulsion this never fires — those rows are linearly
			// dependent, so w[i] is identically zero.
			ub := std.up[jb]
			if skipArt && std.art[jb] && math.IsInf(ub, 1) {
				ub = 0
			}
			if r < -pivTol && !math.IsInf(ub, 1) {
				lim := (ub - st.xB[i]) / (-r)
				if lim < 0 {
					lim = 0
				}
				if lim < tMax-1e-12 || (lim <= tMax && leave < 0) {
					tMax, leave, leaveToUpper = lim, i, true
				} else if bland && lim <= tMax+1e-12 && leave >= 0 && st.basis[i] < st.basis[leave] {
					tMax, leave, leaveToUpper = math.Min(tMax, lim), i, true
				}
			}
		}
		if math.IsInf(tMax, 1) && leave < 0 {
			return Unbounded
		}
		st.iters++
		if tMax <= optTol {
			stall++
		} else {
			stall = 0
		}

		if leave < 0 {
			// Bound flip: entering crosses its own span.
			st.stepXB(tMax, sigma, w)
			st.atUpper[q] = !st.atUpper[q]
			st.flipped = append(st.flipped, st.wNz...)
			continue
		}

		// Pivot: q enters at row `leave`.
		enterVal := tMax
		if qFromUpper {
			enterVal = std.up[q] - tMax
		}
		st.stepXB(tMax, sigma, w)
		// Dual-side update before the representation changes, through the
		// leaving row ρ_r of the *old* inverse (one BTRAN). Classic mode
		// updates the maintained duals; devex mode assembles the tableau
		// pivot row α = ρ_r·A and pushes it through the maintained reduced
		// costs and reference weights instead.
		rho := st.rowOfInverse(leave)
		leavingCol := st.basis[leave]
		resetDevex := false
		if devex {
			t0 := time.Now()
			st.pivotRow(rho)
			st.phase.RowNs += int64(time.Since(t0))
			wr := w[leave]
			thetaD := qD / wr
			wq := st.dvxW[q]
			for _, jj := range st.alphaNz {
				j := int(jj)
				if st.basePos[j] != 0 || j == q {
					continue
				}
				a := st.alphaBuf[j]
				st.dRed[j] -= thetaD * a
				if wgt := (a / wr) * (a / wr) * wq; wgt > st.dvxW[j] {
					st.dvxW[j] = wgt
					if wgt > dvxResetLimit {
						resetDevex = true
					}
				}
			}
			// The leaving variable goes nonbasic with reduced cost -θ_D and
			// inherits the entering column's weight through the pivot.
			st.dRed[leavingCol] = -thetaD
			st.dvxW[leavingCol] = 1
			if wgt := wq / (wr * wr); wgt > 1 {
				st.dvxW[leavingCol] = wgt
				if wgt > dvxResetLimit {
					resetDevex = true
				}
			}
			st.dRed[q] = 0
		} else {
			theta := qD / w[leave]
			for _, k := range st.rhoNz {
				y[k] += theta * rho[k]
			}
		}
		st.applyPivot(q, leave, w)
		st.xB[leave] = enterVal
		// An artificial leaving "to upper" rests at its zero effective bound
		// — the lower bound — unless a staged-start cap (finite std.up) is
		// in force, in which case it genuinely rests at the cap.
		st.atUpper[leavingCol] = leaveToUpper &&
			!(std.art[leavingCol] && math.IsInf(std.up[leavingCol], 1))
		// Clamp tiny negative residue from roundoff. On a large model only
		// the rows this pivot touched are clamped; rows dirtied by bound
		// flips or a refactorization's recompute wait for the full clamp
		// at the Optimal exit above. A small model clamps every row whose
		// value moved (see sweepAll), as its golden-pinned pivot paths
		// always have.
		switch {
		case std.large:
		case sweepAll || len(st.flipped) > m:
			st.clampAll()
			sweepAll = false
		default:
			st.clampRows(st.flipped)
		}
		st.clampRows(st.wNz)
		st.flipped = st.flipped[:0]
		if resetDevex {
			// A reference weight blew past dvxResetLimit: the framework has
			// drifted too far from the current nonbasic set. Restart it (and
			// refresh dRed) against the just-updated basis.
			st.devexReset(costs)
		}
	}
}

// relPivotTol is the hyper-sparse path's ratio-test pivot tolerance:
// relative to the tableau column's largest entry, floored at the absolute
// 1e-9 the small-model path keeps. The absolute test alone once accepted a
// 3e-8 pivot in a column whose largest entry was 4.7e2 (PaperWAN seed 46,
// pivot 21,190): Forrest–Tomlin flagged the update as drift and the forced
// refactorization found the basis singular one step from the end.
func relPivotTol(w []float64, nz []int32) float64 {
	wMax := 0.0
	for _, i := range nz {
		if a := math.Abs(w[i]); a > wMax {
			wMax = a
		}
	}
	return math.Max(1e-9, 1e-7*wMax)
}

// clampAll zeroes the roundoff residue (values in (-1e-7, 0)) of xB;
// clampRows does so on the listed rows only.
func (st *state) clampAll() {
	for i, v := range st.xB {
		if v < 0 && v > -1e-7 {
			st.xB[i] = 0
		}
	}
}

func (st *state) clampRows(rows []int32) {
	for _, i := range rows {
		if v := st.xB[i]; v < 0 && v > -1e-7 {
			st.xB[i] = 0
		}
	}
}

// stepXB moves the basic values one ratio-test step: xB -= t·σ·w, over w's
// nonzero rows.
func (st *state) stepXB(t, sigma float64, w []float64) {
	for _, i := range st.wNz {
		st.xB[i] -= t * sigma * w[i]
	}
}
