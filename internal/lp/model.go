// Package lp implements the linear-programming substrate Pretium depends
// on. The paper builds every module as a linear program and solves it with
// Gurobi [1]; this package provides the equivalent capability from scratch:
// a model builder plus a two-phase revised primal simplex that reports both
// the primal solution and the dual values of every constraint. The duals
// matter as much as the primal here — the Price Computer (§4.3 of the
// paper) literally *is* "solve the offline welfare LP and read the duals of
// the capacity constraints as link prices".
package lp

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Sense is the relational sense of a constraint row.
type Sense int8

// Constraint senses.
const (
	LE Sense = iota // a·x ≤ b
	GE              // a·x ≥ b
	EQ              // a·x = b
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Inf is positive infinity, used for unbounded variable bounds.
var Inf = math.Inf(1)

// Var identifies a decision variable within a Model.
type Var int

// Row identifies a constraint within a Model.
type Row int

// Term is one coefficient of a constraint: Coef * value(Var).
type Term struct {
	Var  Var
	Coef float64
}

// Model is a linear program under construction. The zero value is not
// usable; create models with NewModel. Models are not safe for concurrent
// mutation.
type Model struct {
	maximize bool

	// Per-variable data, indexed by Var.
	obj    []float64
	lo, up []float64

	// Per-row data, indexed by Row.
	rows   [][]Term
	senses []Sense
	rhs    []float64

	// std caches the standardized form across Solve calls. Structural
	// edits (AddVar, AddConstraint) clear it; data edits (SetObj, SetRHS,
	// SetBounds) keep it and Solve re-derives the data-dependent parts in
	// place — see refreshStandard. The cache is what makes the retained-
	// model resolve path allocation-free on the standardization side.
	std *standard

	// pre caches the presolve recipe and reduced model across Solve calls
	// with Options.Presolve set (see presolve.go).
	pre *presolveState
}

// NewModel returns an empty minimization model. Call SetMaximize to flip
// the objective direction.
func NewModel() *Model { return &Model{} }

// SetMaximize selects maximization (true) or minimization (false).
func (m *Model) SetMaximize(max bool) { m.maximize = max }

// AddVar adds a decision variable with bounds [lo, up] and objective
// coefficient obj. The lower bound must be finite; use Inf for an unbounded
// upper side. It panics otherwise, or if lo > up, since either is always a
// programming error in the caller.
func (m *Model) AddVar(lo, up, obj float64) Var {
	checkBounds(len(m.obj), lo, up)
	m.obj = append(m.obj, obj)
	m.lo = append(m.lo, lo)
	m.up = append(m.up, up)
	m.restructured()
	return Var(len(m.obj) - 1)
}

// restructured drops the caches a structural edit invalidates.
func (m *Model) restructured() {
	m.std = nil
	if m.pre != nil {
		m.pre.keyed, m.pre.varRowsOK = false, false
	}
}

// NumVars reports the number of variables added so far.
func (m *Model) NumVars() int { return len(m.obj) }

// NumRows reports the number of constraints added so far.
func (m *Model) NumRows() int { return len(m.rows) }

// SetObj overwrites the objective coefficient of v. This lets callers
// reuse one model skeleton across price updates.
func (m *Model) SetObj(v Var, obj float64) { m.obj[v] = obj }

// SetRHS overwrites the right-hand side of row r. Together with SetObj it
// lets callers perturb and re-solve one model skeleton — e.g. relaxing
// guarantee rows in place instead of rebuilding the whole LP — which is
// exactly the case warm starts (Options.WarmBasis) accelerate.
func (m *Model) SetRHS(r Row, rhs float64) { m.rhs[r] = rhs }

// SetBounds overwrites the bounds of v. Like SetRHS/SetObj it is a data
// edit: the cached standardization is patched, not rebuilt. It panics on
// the bounds AddVar rejects.
func (m *Model) SetBounds(v Var, lo, up float64) {
	checkBounds(int(v), lo, up)
	m.lo[v] = lo
	m.up[v] = up
}

// checkBounds panics unless lo is finite and lo <= up (so neither is NaN).
func checkBounds(j int, lo, up float64) {
	if math.IsInf(lo, 0) || !(lo <= up) {
		panic(fmt.Sprintf("lp: variable %d has bounds [%v, %v]", j, lo, up))
	}
}

// Bounds returns the bounds of v.
func (m *Model) Bounds(v Var) (lo, up float64) { return m.lo[v], m.up[v] }

// Obj returns the objective coefficient of v.
func (m *Model) Obj(v Var) float64 { return m.obj[v] }

// Constraint returns row r as it was added (duplicate variables merged).
// The terms are the model's own slice: read, do not modify.
func (m *Model) Constraint(r Row) (Sense, float64, []Term) {
	return m.senses[r], m.rhs[r], m.rows[r]
}

// AddConstraint adds the row terms (sense) rhs and returns its Row id.
// Duplicate variables within terms are summed. Zero-coefficient terms are
// dropped.
func (m *Model) AddConstraint(sense Sense, rhs float64, terms ...Term) Row {
	merged := mergeTerms(terms)
	m.rows = append(m.rows, merged)
	m.senses = append(m.senses, sense)
	m.rhs = append(m.rhs, rhs)
	m.restructured()
	return Row(len(m.rows) - 1)
}

// mergeTerms sums duplicate variables and drops zeros.
func mergeTerms(terms []Term) []Term {
	if len(terms) <= 1 {
		out := make([]Term, 0, len(terms))
		for _, t := range terms {
			if t.Coef != 0 {
				out = append(out, t)
			}
		}
		return out
	}
	sum := make(map[Var]float64, len(terms))
	order := make([]Var, 0, len(terms))
	for _, t := range terms {
		if _, seen := sum[t.Var]; !seen {
			order = append(order, t.Var)
		}
		sum[t.Var] += t.Coef
	}
	out := make([]Term, 0, len(order))
	for _, v := range order {
		if c := sum[v]; c != 0 {
			out = append(out, Term{Var: v, Coef: c})
		}
	}
	return out
}

// Status is the outcome of a Solve call.
type Status int8

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
	// TimeLimit means Options.TimeBudget expired before optimality was
	// proven. Like IterLimit it carries no usable solution or basis.
	TimeLimit
	// Singular means the basis matrix could not be refactorized mid-solve
	// and neither rung behind that event helped: reinstalling the basis of
	// the last good refactorization, then (after a warm start) one cold
	// retry. A numerical outcome, not a budget: no solution, no basis.
	Singular
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	case TimeLimit:
		return "time-budget"
	case Singular:
		return "singular-basis"
	}
	return "unknown"
}

// Error taxonomy: one sentinel per way a solve can fail to produce a
// trustworthy optimum, so control loops can pattern-match outcomes with
// errors.Is and pick the right degradation rung (retry cold, relax,
// fall back to an LP-free schedule, ...).
var (
	// ErrIterLimit: the pivot budget ran out before optimality.
	ErrIterLimit = errors.New("lp: iteration limit reached")
	// ErrTimeBudget: the wall-clock budget ran out before optimality.
	ErrTimeBudget = errors.New("lp: time budget exhausted")
	// ErrInfeasible: phase 1 proved no feasible point exists.
	ErrInfeasible = errors.New("lp: infeasible")
	// ErrUnbounded: the objective is unbounded over the feasible region.
	ErrUnbounded = errors.New("lp: unbounded")
	// ErrSuspect: the solver claims optimality but the solution fails the
	// residual health check — floating-point drift has produced a vertex
	// that violates the model's own constraints beyond tolerance.
	ErrSuspect = errors.New("lp: solution numerically suspect")
	// ErrSingular: a mid-solve refactorization found the basis singular and
	// the recovery ladder (snapshot, cold retry) could not get past it.
	ErrSingular = errors.New("lp: singular basis")
)

// Err maps a status to its sentinel error (nil for Optimal), so callers
// can pattern-match outcomes with errors.Is.
func (s Status) Err() error {
	switch s {
	case Optimal:
		return nil
	case Infeasible:
		return ErrInfeasible
	case Unbounded:
		return ErrUnbounded
	case IterLimit:
		return ErrIterLimit
	case TimeLimit:
		return ErrTimeBudget
	case Singular:
		return ErrSingular
	}
	return errors.New("lp: unknown status")
}

// Solution is the result of solving a Model.
type Solution struct {
	Status    Status
	Objective float64
	// X holds the optimal value of each variable, indexed by Var.
	X []float64
	// Dual holds the dual value (shadow price) of each constraint,
	// indexed by Row, in the *model's* orientation: for a maximization
	// model with a ≤ capacity row, Dual is the nonnegative marginal
	// objective gain per unit of extra capacity — exactly the link price
	// the Price Computer wants.
	Dual []float64
	// Iterations counts simplex pivots (both phases); Refactors counts
	// basis refactorizations. The rest of the solve's telemetry goes to
	// Options.Stats.
	Iterations int
	Refactors  int
	// Residual is the solution health check: the worst relative violation
	// of any constraint row or variable bound by the reported X, computed
	// in model space after an Optimal solve (0 otherwise). A correct
	// simplex vertex satisfies its basis equations to roundoff; a residual
	// far above tolerance means accumulated floating-point drift (e.g. a
	// near-singular basis survived refactorization) and the "optimum"
	// should not be trusted.
	Residual float64
	// Suspect flags an Optimal solution whose Residual exceeds
	// residualTol. The primal values and duals are still returned (they
	// may be approximately right), but control loops should treat the
	// solve as failed and retry cold or degrade.
	Suspect bool

	basis *Basis
}

// Basis returns the terminal simplex basis of the solve, for warm-starting
// a later solve of a structurally identical model via Options.WarmBasis.
// It is non-nil after Optimal solves and after Infeasible ones (where it
// captures the phase-1 terminal basis — useful when the caller relaxes
// constraints and retries). It is nil after Unbounded or IterLimit.
func (s *Solution) Basis() *Basis { return s.basis }

// PhaseTimings is the per-phase wall-clock breakdown of solver time, in
// nanoseconds: pricing (entering-column scans and maintained-reduced-cost
// refreshes), FTRAN (tableau-column solves), BTRAN (dual and row-of-inverse
// solves), refactorization (basis rebuilds, including the xB recomputation
// they force), and the devex pivot-row assembly (alpha = rho·A, on devex
// solves only). The phases do not sum to the solve's wall clock — ratio tests,
// pivot application, and bookkeeping are uncounted — but a wall-clock
// regression localizes to whichever counter moved.
type PhaseTimings struct {
	PricingNs  int64
	FtranNs    int64
	BtranNs    int64
	RefactorNs int64
	RowNs      int64
}

// add accumulates o into p.
func (p *PhaseTimings) add(o PhaseTimings) {
	p.PricingNs += o.PricingNs
	p.FtranNs += o.FtranNs
	p.BtranNs += o.BtranNs
	p.RefactorNs += o.RefactorNs
	p.RowNs += o.RowNs
}

// SolveStats accumulates solver telemetry across Solve calls when hung on
// Options.Stats. It is deliberately plain counters, not a metrics handle:
// the lp package stays zero-dependency, and callers (core publishes SAM
// and PC stats separately) decide where the numbers go. Not safe for
// concurrent use — give each concurrently running controller its own.
type SolveStats struct {
	// Solves counts Solve calls that reached the simplex (standardization
	// errors are not counted; they never reach a pivot).
	Solves int
	// Iterations is the total pivot count across both phases and the
	// dual-simplex warm-start cleanup.
	Iterations int
	// Refactorizations counts basis refactorizations (periodic cadence,
	// kernel growth/drift triggers, and warm-basis installs alike).
	Refactorizations int
	// TimeBudgetHits counts solves that ended with Status TimeLimit.
	TimeBudgetHits int
	// IterLimitHits counts solves that ended with Status IterLimit.
	IterLimitHits int
	// SingularHits counts solves that ended with Status Singular: the
	// recovery ladder behind a singular refactorization ran out.
	SingularHits int
	// WarmStarts counts solves where a supplied WarmBasis was actually
	// used (installed primal feasible, or repaired by dual cleanup) —
	// attempts that fell back cold are not counted.
	WarmStarts int
	// DevexSolves counts solves whose final phase priced with devex.
	DevexSolves int
	// Presolved counts the recorded solves that ran on a presolve-reduced
	// model (Options.Presolve) — for sched's LPs, the solves of models
	// large enough to be built with implicit bounds.
	Presolved int
	// PresolveReused counts the presolved solves that reused the last
	// reduction because only the objective had changed (see runPresolve).
	PresolveReused int
	// Artificials totals the artificial columns basic at cold starts: the
	// phase-1 work the standard form left for the simplex to do.
	Artificials int
	// Recoveries counts refactorizations that found the basis singular and
	// were repaired by reinstalling the last good basis — a solver leaning
	// on its safety net.
	Recoveries int
	// Timings accumulates the per-phase wall-clock breakdown across the
	// recorded solves.
	Timings PhaseTimings
}

// record folds one raw simplex outcome into the totals.
func (s *SolveStats) record(res result) {
	s.Solves++
	s.Iterations += res.iters
	s.Refactorizations += res.refactors
	switch res.status {
	case TimeLimit:
		s.TimeBudgetHits++
	case IterLimit:
		s.IterLimitHits++
	case Singular:
		s.SingularHits++
	}
	if res.warm {
		s.WarmStarts++
	}
	if res.pricing == pricingDevex {
		s.DevexSolves++
	}
	s.Artificials += res.artificials
	s.Recoveries += res.recoveries
	s.Timings.add(res.phase)
}

// pricingRule names an entering-variable rule of the primal simplex. The
// solver picks it: devex for cold solves at hyper-sparse scale (m >= 4096
// rows, where the Dantzig/partial rule pays ~10^5 pivots on the degenerate
// staircase plateau), the classic hybrid everywhere else — warm-started
// solves included, so their pivot streams, pinned by the golden-trace suite
// and the warm-resolve benchmarks, stay byte-identical.
type pricingRule string

// Pricing rules.
const (
	// pricingDantzig is the classic rule: a full Dantzig scan on narrow
	// LPs, candidate-list partial pricing on wide ones.
	pricingDantzig pricingRule = "dantzig"
	// pricingDevex is devex pricing (Forrest–Goldfarb reference weights).
	pricingDevex pricingRule = "devex"
)

// forcePricing, when set, overrides the solver's choice of rule in every
// phase regardless of model size. Tests only.
var forcePricing pricingRule

// forceRefactorEvery, when positive, replaces the kernel's own periodic
// refactorization cadence (factor.refactorEvery) in every solve. Tests only.
var forceRefactorEvery int

// forceIterBudget, when positive, replaces the pivot budget (see iterBudget)
// in every solve. Tests only.
var forceIterBudget int

// iterBudget bounds the total pivots of a solve of a standardized problem
// of n columns and m rows: generous for any well-posed LP, and what stops a
// cycling one with IterLimit.
func iterBudget(n, m int) int {
	if forceIterBudget > 0 {
		return forceIterBudget
	}
	return 2000 + 40*(n+m)
}

// residualTol is the relative constraint-violation threshold above which
// an Optimal solution is flagged Suspect. A var so tests can force the flag.
var residualTol = 1e-6

// Options tunes the solver.
type Options struct {
	// TimeBudget bounds the wall-clock time of the solve; when it expires
	// the solve returns Status TimeLimit (checked between pivots, so the
	// overrun is at most one pivot). 0 means unlimited. This is the
	// guardrail that keeps a control loop's step time bounded even when an
	// LP degenerates: the caller gets a clean TimeLimit instead of a
	// stalled controller.
	TimeBudget time.Duration
	// WarmBasis, when non-nil, starts the solve from this previously
	// captured basis (see Solution.Basis) instead of running phase 1 from
	// scratch. A basis that does not structurally match the model, is
	// singular at refactorization, or is primal infeasible for the current
	// data is ignored and the solve falls back to a cold start.
	WarmBasis *Basis
	// Stats, when non-nil, accumulates solver telemetry (pivots,
	// refactorizations, budget hits, warm-start uses) across Solve calls.
	// The pointer is read once per solve; it adds no per-pivot cost.
	Stats *SolveStats
	// Presolve runs a model-reduction pass before the simplex (drop empty
	// and redundant rows, fix equal-bound and dominated variables, turn
	// singleton rows into bounds) and maps the reduced solution back to the
	// full model — primal and duals included, so PC prices survive the
	// reduction. Warm bases captured under Presolve refer to
	// the reduced model and keep working across re-solves as long as the
	// reduction pattern is stable; a pattern change falls back to a cold
	// start. Outside tests internal/sched is its only setter: Built.Solve
	// turns it on for exactly the models it built with implicit bounds.
	Presolve bool
	// postsolved marks presolve's inner solve, which skips what
	// solvePresolved recomputes: residual, Suspect.
	postsolved bool
}

// Solve optimizes the model and returns the solution. The model's LP data
// is not modified (Solve only refreshes internal caches), so it can be
// re-solved after edits.
func (m *Model) Solve(opts Options) (*Solution, error) {
	if opts.Presolve {
		return m.solvePresolved(opts)
	}
	std, err := m.standardized()
	if err != nil {
		return nil, err
	}
	res := std.solve(opts)
	if opts.Stats != nil {
		opts.Stats.record(res)
	}
	sol := &Solution{
		Status:     res.status,
		Iterations: res.iters,
		Refactors:  res.refactors,
		X:          make([]float64, m.NumVars()),
		Dual:       make([]float64, m.NumRows()),
		basis:      res.basis,
	}
	if res.status != Optimal {
		return sol, nil
	}
	// Map the standardized solution back to model variables.
	obj := 0.0
	for j, c := range m.obj {
		sol.X[j] = m.lo[j] + res.x[j]
		obj += c * sol.X[j]
	}
	sol.Objective = obj
	for i := 0; i < m.NumRows(); i++ {
		d := res.y[i] * std.rowSign[i]
		if m.maximize {
			d = -d
		}
		sol.Dual[i] = d
	}
	if !opts.postsolved {
		sol.Residual = m.residual(sol.X)
		sol.Suspect = sol.Residual > residualTol
	}
	return sol, nil
}

// residual computes the worst relative violation of any constraint row or
// variable bound by x — the solution health check behind Solution.Suspect.
// Each row violation is scaled by 1 + |rhs| + max|term| so that large,
// well-scaled models are not flagged for proportionate roundoff.
func (m *Model) residual(x []float64) float64 {
	worst := 0.0
	note := func(viol, scale float64) {
		if r := viol / scale; r > worst {
			worst = r
		}
	}
	for j := range x {
		scale := 1 + math.Abs(x[j])
		if lo := m.lo[j]; x[j] < lo {
			note(lo-x[j], scale)
		}
		if up := m.up[j]; !math.IsInf(up, 1) && x[j] > up {
			note(x[j]-up, scale)
		}
	}
	for i, terms := range m.rows {
		lhs, mag := 0.0, 0.0
		for _, t := range terms {
			v := t.Coef * x[t.Var]
			lhs += v
			if a := math.Abs(v); a > mag {
				mag = a
			}
		}
		scale := 1 + math.Abs(m.rhs[i]) + mag
		switch m.senses[i] {
		case LE:
			note(lhs-m.rhs[i], scale)
		case GE:
			note(m.rhs[i]-lhs, scale)
		case EQ:
			note(math.Abs(lhs-m.rhs[i]), scale)
		}
	}
	return worst
}
