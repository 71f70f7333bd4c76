package lp

import "math"

// Basis is an opaque snapshot of a simplex basis, taken at the end of a
// Solve and usable to warm-start a later solve of a structurally identical
// model. Warm starts are always safe: a basis that does not match the new
// model's structure, is numerically singular at refactorization, or is
// primal infeasible for the new model's data is silently discarded and the
// solve falls back to a cold start.
//
// The intended use is a retained model re-solved after SetObj, its one
// data edit: the previous optimal basis stays primal feasible (xB = B⁻¹b
// does not see the objective), so phase 1 is skipped and phase 2 typically
// needs a handful of pivots instead of a full two-phase solve.
//
// A Basis is read-only once captured: installing it never writes it, so one
// Basis may warm-start any number of solves, concurrently included.
type Basis struct {
	m, n    int    // standardized row/column counts
	sig     uint64 // signature of the standardization (layout and matrix)
	basic   []int  // basic standardized column per row
	atUpper []bool // nonbasic-at-upper flag per standardized column

	// fac is the Forrest–Tomlin factorization as of capture, nil on a small
	// model: a clone, with no scratch, a view that copies what it writes
	// before writing it. installWarm clones it again, so a large warm solve
	// that takes no pivot copies no factor (see ftFactor.clone). A signature
	// match guarantees the same basis columns, so the factorization is
	// reinstalled, skipping a refactorization. Its age rides along, so the
	// periodic-refactorization policy spans chains of warm solves. A small
	// model's basis is refactorized at install instead: its factorization is
	// cheap to rebuild and costly to copy at every capture.
	fac *ftFactor
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

// capture snapshots the current basis of st. A Forrest–Tomlin
// factorization is cloned, so later pivots on st can never corrupt the
// captured snapshot (TestCaptureSurvivesLaterMutation); any other kernel's
// is left behind.
func (st *state) capture() *Basis {
	b := &Basis{
		m:       st.std.m,
		n:       st.std.n,
		sig:     st.std.sig,
		basic:   append([]int(nil), st.basis...),
		atUpper: append([]bool(nil), st.atUpper...),
	}
	if f, ok := st.fac.(*ftFactor); ok {
		b.fac = f.clone()
	}
	return b
}

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

// installWarm loads a structurally matching basis into st and reports
// whether phase 2 can start from it: the basis is valid, nonsingular, and
// its implied basic values are primal feasible (with basic artificials at
// numerical zero). On false the caller must fall back to a cold start and
// fully re-initialize st.
func (st *state) installWarm(b *Basis) bool {
	std := st.std
	copy(st.basis, b.basic)
	for j := range st.basePos {
		st.basePos[j] = 0
	}
	for i, j := range st.basis {
		if j < 0 || j >= std.n || st.basePos[j] != 0 {
			return false // out of range or duplicate basic column
		}
		st.basePos[j] = i + 1
	}
	copy(st.atUpper, b.atUpper)
	for j, up := range st.atUpper {
		if up && math.IsInf(std.up[j], 1) {
			return false // cannot rest at an infinite upper bound
		}
	}
	if _, ok := st.fac.(*ftFactor); ok && b.fac != nil && b.fac.age() < st.refactorEvery && !b.fac.wantRefactor() {
		// Reuse the captured factorization: the signature match guarantees
		// the basis columns are identical, so the snapshot still represents
		// B⁻¹ for the new model and the refactorization can be skipped
		// outright — the dominant cost of a large warm install. The solve
		// runs on a clone, a view that copies before it writes, so its
		// pivots cannot corrupt the caller's Basis (which may warm-start
		// further solves). Only the basic values need recomputing against
		// this model's right-hand side. A small basis, or one a test's
		// oracle or wrapper runs, is refactorized like a snapshot that no
		// longer qualifies.
		st.fac = b.fac.clone()
		st.recomputeXB()
	} else if st.refactor() != refactorOK {
		return false // singular basis matrix
	}
	for i, j := range st.basis {
		x := st.xB[i]
		if x < -warmFeasTol || x > st.effUpper(j)+warmFeasTol {
			return false // out of bounds: captured for other data
		}
		if x < 0 {
			st.xB[i] = 0
		}
	}
	return true
}
