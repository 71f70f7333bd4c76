package lp

import "time"

// refactorOutcome classifies a basis refactorization attempt.
type refactorOutcome int8

const (
	// refactorOK: the representation now matches the basis columns exactly.
	refactorOK refactorOutcome = iota
	// refactorSingular: the basis matrix is numerically singular.
	refactorSingular
	// refactorTimeout: Options.TimeBudget expired mid-factorization. The
	// representation is unusable; the solve must surface TimeLimit.
	refactorTimeout
)

// factor is the basis representation behind the revised simplex: everything
// the pivot loops need from B⁻¹, expressed operationally so the kernel can
// be etaFactor or ftFactor (the production pair, both sparse LU
// factorizations, see luFactor) or the dense inverse the tests keep as
// their differential oracle.
//
// Vector index conventions, fixed by the simplex loops: FTRAN inputs are
// indexed by constraint row and outputs by basis position (w[i] pairs with
// basis[i]); BTRAN inputs are indexed by basis position and outputs by
// constraint row (duals live in row space).
//
// The pivot loops take their tableau columns and rows through the
// hyper-sparse (nonzero-list) forms, ftranColNz/btranUnitNz/updateNz, and
// whole vectors through ftranDense/btran. The tests check the list forms
// against ftranDense/btran of a scattered column or unit vector, against
// updateNz with a nil list, and against the dense oracle.
type factor interface {
	// reset installs the exact identity basis (the cold-start slack/
	// artificial basis is the identity matrix by construction), clearing
	// any pivot history.
	reset(m int)
	// refactorize rebuilds the representation from the basis columns of
	// std. deadline (zero value = none) is the wall-clock guardrail from
	// Options.TimeBudget, checked periodically inside the factorization so
	// a large refactorization cannot blow the control loop's budget.
	refactorize(std *standard, basis []int, deadline time.Time) refactorOutcome
	// ftranDense computes out = B⁻¹·x for dense x (out must not alias x).
	ftranDense(x, out []float64)
	// btran computes out = B⁻ᵀ·x, i.e. outᵀ = xᵀB⁻¹ (out must not alias x).
	btran(x, out []float64)
	// ftranColNz computes out = B⁻¹·a for a sparse column a: it zeroes
	// out's entries at prev (the list the previous call returned for this
	// buffer), computes only the reachable entries, and returns their
	// deduplicated index list. Everything off the list is exactly zero. The
	// caller owns one prev list per output buffer and must thread it
	// through every call.
	ftranColNz(col []entry, out []float64, prev []int32) []int32
	// btranUnitNz computes out = eᵣᵀB⁻¹ — row r of the basis inverse, the
	// vector the dual ratio test and the incremental dual update consume —
	// with ftranColNz's contract (indices are constraint rows).
	btranUnitNz(r int, out []float64, prev []int32) []int32
	// updateNz applies the product-form pivot replacing the basis column at
	// position r with the entering column whose tableau form is w = B⁻¹a_q,
	// wnz its nonzero list (nil: the kernel scans w). w is consumed (the
	// caller's scratch; the kernel must copy what it keeps).
	updateNz(r int, w []float64, wnz []int32)
	// age counts product-form pivots applied since the last reset or
	// refactorization — the periodic-refactorization hygiene counter.
	age() int
	// refactorEvery is the age at which the kernel wants that periodic
	// refactorization.
	refactorEvery() int
	// wantRefactor reports that the representation itself asks for an
	// early refactorization (update-fill growth or a drift-suspect pivot),
	// independent of the refactorEvery cadence.
	wantRefactor() bool
	// clone returns a deep snapshot: no later update or refactorize on
	// either copy may affect the other. Basis capture depends on this.
	clone() factor
}

// newFactor builds the kernel for a solve of a large or a small model. A
// var so tests can wrap the kernel (fault injection into refactorize) or
// swap in the dense oracle.
var newFactor = func(large bool) factor {
	if large {
		return &ftFactor{}
	}
	return &etaFactor{}
}

// expired reports whether the wall-clock deadline (zero value = none) has
// passed.
func expired(deadline time.Time) bool {
	return !deadline.IsZero() && !time.Now().Before(deadline)
}
