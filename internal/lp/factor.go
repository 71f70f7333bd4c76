package lp

import (
	"math"
	"time"
)

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
// be a dense inverse (the original implementation, kept as a differential
// reference behind Options.DenseKernel) or a sparse LU factorization with a
// product-form eta file (the default).
//
// Vector index conventions, fixed by the simplex loops: FTRAN inputs are
// indexed by constraint row and outputs by basis position (w[i] pairs with
// basis[i]); BTRAN inputs are indexed by basis position and outputs by
// constraint row (duals live in row space).
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
	// ftranCol computes out = B⁻¹·a for a sparse column a. out is dense,
	// fully overwritten, len m.
	ftranCol(col []entry, out []float64)
	// ftranDense computes out = B⁻¹·x for dense x (out must not alias x).
	ftranDense(x, out []float64)
	// btran computes out = B⁻ᵀ·x, i.e. outᵀ = xᵀB⁻¹ (out must not alias x).
	btran(x, out []float64)
	// btranUnit computes out = eᵣᵀB⁻¹ — row r of the basis inverse, the
	// vector the dual ratio test and the incremental dual update consume.
	btranUnit(r int, out []float64)
	// update applies the product-form pivot replacing the basis column at
	// position r with the entering column whose tableau form is w = B⁻¹a_q.
	// w is consumed (the caller's scratch; the kernel must copy what it
	// keeps).
	update(r int, w []float64)
	// ftranColNz is the hyper-sparse form of ftranCol for large models: it
	// zeroes out's entries at prev (the list the previous call returned for
	// this buffer), computes only the reachable entries, and returns their
	// deduplicated (unsorted) index list. Everything off the list is exactly
	// zero. The caller owns one prev list per output buffer and must thread
	// it through every call.
	ftranColNz(col []entry, out []float64, prev []int32) []int32
	// btranUnitNz is the hyper-sparse form of btranUnit, same contract as
	// ftranColNz (indices are constraint rows).
	btranUnitNz(r int, out []float64, prev []int32) []int32
	// updateNz is update with the column's nonzero list (sorted ascending)
	// supplied, letting the kernel skip its O(m) scan of w.
	updateNz(r int, w []float64, wnz []int32)
	// age counts product-form pivots applied since the last reset or
	// refactorization — the periodic-refactorization hygiene counter.
	age() int
	// wantRefactor reports that the representation itself asks for an
	// early refactorization (eta-file growth or a drift-suspect pivot),
	// independent of the periodic Options.RefactorEvery cadence.
	wantRefactor() bool
	// clone returns a deep snapshot: no later update or refactorize on
	// either copy may affect the other. Basis capture depends on this.
	clone() factor
	// denseKernel distinguishes the two implementations so a captured
	// snapshot is only transplanted into a solve using the same kernel.
	denseKernel() bool
}

// newFactor picks the kernel for a solve. A var so tests can wrap the
// kernel (fault injection into refactorize).
var newFactor = func(denseKernel bool) factor {
	if denseKernel {
		return &denseFactor{}
	}
	return &luFactor{}
}

// denseFactor is the original kernel: B⁻¹ held as a dense m×m matrix,
// updated in product form row by row (O(m²) per pivot) and rebuilt by
// Gauss-Jordan elimination with partial pivoting (O(m³)). It is retained as
// the slow-but-simple reference the differential tests compare the sparse
// kernel against, selectable via Options.DenseKernel.
type denseFactor struct {
	m    int
	binv [][]float64 // row i = row i of B⁻¹
	nPiv int         // product-form pivots since reset/refactorize
}

func (f *denseFactor) denseKernel() bool { return true }
func (f *denseFactor) age() int          { return f.nPiv }
func (f *denseFactor) wantRefactor() bool {
	return false // the dense inverse has no eta file to outgrow
}

func (f *denseFactor) reset(m int) {
	if f.m != m || f.binv == nil {
		f.m = m
		f.binv = make([][]float64, m)
		for i := range f.binv {
			f.binv[i] = make([]float64, m)
		}
	}
	for i, row := range f.binv {
		for k := range row {
			row[k] = 0
		}
		row[i] = 1
	}
	f.nPiv = 0
}

// refactorize rebuilds B⁻¹ from the basis columns by Gauss-Jordan
// elimination with partial pivoting on [B | I].
func (f *denseFactor) refactorize(std *standard, basis []int, deadline time.Time) refactorOutcome {
	m := std.m
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, 2*m)
		a[i][m+i] = 1
	}
	for pos, j := range basis {
		for _, e := range std.cols[j] {
			a[e.row][pos] = e.val
		}
	}
	for col := 0; col < m; col++ {
		if col%32 == 0 && expired(deadline) {
			return refactorTimeout
		}
		// Partial pivot.
		p := col
		best := math.Abs(a[col][col])
		for i := col + 1; i < m; i++ {
			if v := math.Abs(a[i][col]); v > best {
				best, p = v, i
			}
		}
		if best < 1e-12 {
			return refactorSingular
		}
		a[col], a[p] = a[p], a[col]
		inv := 1 / a[col][col]
		for k := col; k < 2*m; k++ {
			a[col][k] *= inv
		}
		for i := 0; i < m; i++ {
			if i == col {
				continue
			}
			fct := a[i][col]
			if fct == 0 {
				continue
			}
			for k := col; k < 2*m; k++ {
				a[i][k] -= fct * a[col][k]
			}
		}
	}
	if f.m != m || f.binv == nil {
		f.reset(m)
	}
	for i := 0; i < m; i++ {
		copy(f.binv[i], a[i][m:])
	}
	f.nPiv = 0
	return refactorOK
}

func (f *denseFactor) ftranCol(col []entry, out []float64) {
	m := f.m
	for i := range out {
		out[i] = 0
	}
	for _, e := range col {
		v := e.val
		for i := 0; i < m; i++ {
			out[i] += f.binv[i][e.row] * v
		}
	}
}

func (f *denseFactor) ftranDense(x, out []float64) {
	m := f.m
	for i := 0; i < m; i++ {
		v := 0.0
		row := f.binv[i]
		for k := 0; k < m; k++ {
			v += row[k] * x[k]
		}
		out[i] = v
	}
}

func (f *denseFactor) btran(x, out []float64) {
	m := f.m
	for k := range out {
		out[k] = 0
	}
	for i := 0; i < m; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := f.binv[i]
		for k := 0; k < m; k++ {
			out[k] += xi * row[k]
		}
	}
}

func (f *denseFactor) btranUnit(r int, out []float64) {
	copy(out, f.binv[r])
}

func (f *denseFactor) update(r int, w []float64) {
	m := f.m
	piv := w[r]
	br := f.binv[r][:m]
	inv := 1 / piv
	for k := range br {
		br[k] *= inv
	}
	for i := 0; i < m; i++ {
		if i == r {
			continue
		}
		fct := w[i]
		if fct == 0 {
			continue
		}
		// axpy: binv[i] -= fct * br. Unrolled 4-wide; this is the hottest
		// loop of the dense kernel (every pivot touches m rows).
		bi := f.binv[i][:m]
		k := 0
		for ; k+4 <= m; k += 4 {
			bi[k] -= fct * br[k]
			bi[k+1] -= fct * br[k+1]
			bi[k+2] -= fct * br[k+2]
			bi[k+3] -= fct * br[k+3]
		}
		for ; k < m; k++ {
			bi[k] -= fct * br[k]
		}
	}
	f.nPiv++
}

// The dense kernel has no sparsity to exploit: the Nz variants compute the
// full dense result and report its nonzero pattern (prev needs no clearing —
// the dense solves overwrite every entry).
func (f *denseFactor) ftranColNz(col []entry, out []float64, prev []int32) []int32 {
	f.ftranCol(col, out)
	nz := prev[:0]
	for i, v := range out[:f.m] {
		if v != 0 {
			nz = append(nz, int32(i))
		}
	}
	return nz
}

func (f *denseFactor) btranUnitNz(r int, out []float64, prev []int32) []int32 {
	f.btranUnit(r, out)
	nz := prev[:0]
	for i, v := range out[:f.m] {
		if v != 0 {
			nz = append(nz, int32(i))
		}
	}
	return nz
}

func (f *denseFactor) updateNz(r int, w []float64, wnz []int32) {
	f.update(r, w)
}

func (f *denseFactor) clone() factor {
	c := &denseFactor{m: f.m, nPiv: f.nPiv}
	c.binv = make([][]float64, f.m)
	for i, row := range f.binv {
		c.binv[i] = append([]float64(nil), row...)
	}
	return c
}

// expired reports whether the wall-clock deadline (zero value = none) has
// passed.
func expired(deadline time.Time) bool {
	return !deadline.IsZero() && !time.Now().Before(deadline)
}
