package lp

import "math"

// Basis is an opaque snapshot of a simplex basis, taken at the end of a
// Solve and usable to warm-start a later solve of a structurally identical
// model (same variables, bounds pattern, and constraint senses — only
// objective coefficients and right-hand sides may differ). Warm starts are
// always safe: a basis that does not match the new model's structure, is
// numerically singular at refactorization, or cannot be repaired for the
// new data is silently discarded and the solve falls back to a cold start.
//
// A basis that is structurally valid but primal infeasible for the new
// right-hand side (the common case after any RHS change: xB = B⁻¹b picks
// up every perturbation through the inverse) is not discarded immediately:
// if it is still dual feasible — which RHS-only changes preserve, since
// reduced costs do not depend on b — a short dual-simplex cleanup restores
// primal feasibility in a few pivots before phase 2 runs.
//
// The intended use is the SAM/PC control loop: successive re-solves of the
// same LP skeleton after an RHS or objective perturbation typically need a
// handful of pivots from the previous optimal basis instead of a full
// two-phase solve from scratch.
//
// A Basis is read-only once captured: installing it never writes it, so one
// Basis may warm-start any number of solves, concurrently included.
type Basis struct {
	m, n    int    // standardized row/column counts
	sig     uint64 // signature of the standardization (layout and matrix)
	basic   []int  // basic standardized column per row
	atUpper []bool // nonbasic-at-upper flag per standardized column

	// fac is the basis representation as of capture: a clone, a view of the
	// capturing solve's arrays with no scratch. installWarm clones it again,
	// and a solve copies what it writes before writing it, so a warm solve
	// that takes no pivot copies no factor (see ftFactor.clone). A signature
	// match guarantees the same basis columns, so the factorization is
	// reinstalled, skipping a refactorization. Its age rides along, so the
	// periodic-refactorization policy spans chains of warm solves.
	fac factor
}

// fingerprint hashes the standardization: column count, row count, the
// artificial-column pattern (which encodes the normalized senses), and
// every constraint-matrix nonzero. Models that hash equal share an index
// space AND a constraint matrix — only right-hand sides, bounds, and
// objective may differ — so a captured basis, including its factorization,
// can be transplanted verbatim. standardize stores it in std.sig.
func (std *standard) fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	mix(uint64(std.m))
	mix(uint64(std.n))
	for j, isArt := range std.art {
		if isArt {
			mix(uint64(j))
		}
	}
	for _, col := range std.cols {
		mix(uint64(len(col)))
		for _, e := range col {
			mix(uint64(e.row))
			mix(math.Float64bits(e.val))
		}
	}
	return h
}

// matches reports whether the basis was captured from a standardization
// with the same layout as std.
func (b *Basis) matches(std *standard) bool {
	return b != nil && b.m == std.m && b.n == std.n && b.sig == std.sig
}

// capture snapshots the current basis of st. The factorization is cloned,
// so later pivots on st can never corrupt the captured snapshot
// (TestCaptureSurvivesLaterMutation).
func (st *state) capture() *Basis {
	return &Basis{
		m:       st.std.m,
		n:       st.std.n,
		sig:     st.std.sig,
		basic:   append([]int(nil), st.basis...),
		atUpper: append([]bool(nil), st.atUpper...),
		fac:     st.fac.clone(),
	}
}

// warmFit classifies how a warm basis fits the new model data.
type warmFit int

const (
	// warmNo: the basis is structurally unusable (bad indices, atUpper on
	// an unbounded column, or a singular basis matrix). Cold start.
	warmNo warmFit = iota
	// warmPrimal: the basis is primal feasible for the new data; phase 2
	// can start immediately.
	warmPrimal
	// warmRepair: the basis is valid and nonsingular but primal infeasible
	// for the new right-hand side. If it is still dual feasible, a
	// dual-simplex cleanup can repair it; otherwise cold start.
	warmRepair
)

// warmFeasTol is the primal feasibility tolerance shared by the warm-start
// install check and the dual-simplex cleanup.
const warmFeasTol = 1e-7

// effUpper is column j's upper bound as enforced by the warm-start path:
// artificials must stay at zero, so they get an effective upper bound of 0
// regardless of their nominal (infinite) bound.
func (st *state) effUpper(j int) float64 {
	if st.std.art[j] {
		return 0
	}
	return st.std.up[j]
}

// sameKernel reports whether a captured factorization is of the production
// kernel this solve runs. The signature fixes the model's size, so the two
// production kernels never meet; what this turns away is a test's oracle or
// wrapper, which refactorizes rather than take over another kernel's
// snapshot.
func sameKernel(captured, running factor) bool {
	switch captured.(type) {
	case *etaFactor:
		_, ok := running.(*etaFactor)
		return ok
	case *ftFactor:
		_, ok := running.(*ftFactor)
		return ok
	}
	return false
}

// installWarm loads a structurally matching basis into st and classifies
// the result: warmPrimal when the implied basic values are primal feasible
// (with basic artificials at numerical zero), warmRepair when the basis is
// valid but the new right-hand side pushed some basic value out of bounds,
// warmNo when the basis is unusable. On warmNo the caller must fall back
// to a cold start and fully re-initialize st.
func (st *state) installWarm(b *Basis) warmFit {
	std := st.std
	copy(st.basis, b.basic)
	for j := range st.basePos {
		st.basePos[j] = 0
	}
	for i, j := range st.basis {
		if j < 0 || j >= std.n || st.basePos[j] != 0 {
			return warmNo // out of range or duplicate basic column
		}
		st.basePos[j] = i + 1
	}
	copy(st.atUpper, b.atUpper)
	for j, up := range st.atUpper {
		if up && math.IsInf(std.up[j], 1) {
			return warmNo // cannot rest at an infinite upper bound
		}
	}
	if sameKernel(b.fac, st.fac) && b.fac.age() < st.refactorEvery && !b.fac.wantRefactor() {
		// Reuse the captured factorization: the signature match guarantees
		// the basis columns are identical, so the snapshot still represents
		// B⁻¹ for the new model and the refactorization can be skipped
		// outright — the dominant cost of a warm install. The solve runs on
		// a clone, a view that copies before it writes, so its pivots
		// cannot corrupt the caller's Basis (which may warm-start further
		// solves). Only the basic values need recomputing against the new
		// right-hand side.
		st.fac = b.fac.clone()
		st.recomputeXB()
	} else if st.refactor() != refactorOK {
		return warmNo // singular basis matrix (or budget expired mid-rebuild)
	}
	fit := warmPrimal
	for i, j := range st.basis {
		x := st.xB[i]
		if x < -warmFeasTol || x > st.effUpper(j)+warmFeasTol {
			fit = warmRepair // out of bounds: candidate for dual repair
			continue
		}
		if x < 0 {
			st.xB[i] = 0
		}
	}
	return fit
}
