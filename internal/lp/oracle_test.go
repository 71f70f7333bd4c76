package lp

import (
	"math"
)

// newKernel builds a bare kernel for the factor-level tests: the dense
// oracle, or the small-model sparse kernel under test.
func newKernel(dense bool) factor {
	if dense {
		return &denseFactor{}
	}
	return &etaFactor{}
}

// solveDense is m.Solve on the dense oracle kernel (O(m²) per pivot, so
// small models only).
func solveDense(m *Model, opts Options) (*Solution, error) {
	old := newFactor
	newFactor = func(bool) factor { return newKernel(true) }
	defer func() { newFactor = old }()
	return m.Solve(opts)
}

// withRefactorEvery runs fn with every solve's periodic refactorization
// cadence forced to n pivots.
func withRefactorEvery(n int, fn func()) {
	old := forceRefactorEvery
	forceRefactorEvery = n
	defer func() { forceRefactorEvery = old }()
	fn()
}

// withIterBudget runs fn with every solve's pivot budget forced to n.
func withIterBudget(n int, fn func()) {
	old := forceIterBudget
	forceIterBudget = n
	defer func() { forceIterBudget = old }()
	fn()
}

// reducedCosts computes each variable's reduced cost c_j − yᵀA_j from the
// duals, in the model's orientation: the marginal objective change per unit
// increase of the variable.
func reducedCosts(m *Model, dual []float64) []float64 {
	d := append([]float64(nil), m.obj...)
	for i, row := range m.rows {
		for _, t := range row {
			d[t.Var] -= dual[i] * t.Coef
		}
	}
	return d
}

// solveEvery is m.Solve with the refactorization cadence forced to n.
func solveEvery(n int, m *Model, opts Options) (sol *Solution, err error) {
	withRefactorEvery(n, func() { sol, err = m.Solve(opts) })
	return sol, err
}

// withPricing runs fn with every solve's entering rule forced to rule.
func withPricing(rule pricingRule, fn func()) {
	old := forcePricing
	forcePricing = rule
	defer func() { forcePricing = old }()
	fn()
}

// solveWith is m.Solve with the entering rule forced to rule.
func solveWith(rule pricingRule, m *Model, opts Options) (sol *Solution, err error) {
	withPricing(rule, func() { sol, err = m.Solve(opts) })
	return sol, err
}

// solvePresolvedWith is solveWith through presolve, whatever m's size.
func solvePresolvedWith(rule pricingRule, m *Model) (sol *Solution, err error) {
	withPricing(rule, func() { sol, err = m.solvePresolved(Options{}) })
	return sol, err
}

// denseFactor is the original kernel: B⁻¹ held as a dense m×m matrix,
// updated in product form row by row (O(m²) per pivot) and rebuilt by
// Gauss-Jordan elimination with partial pivoting (O(m³)). It is retained as
// the slow-but-simple oracle the differential tests compare the sparse
// kernel against (see solveDense).
type denseFactor struct {
	m    int
	binv [][]float64 // row i = row i of B⁻¹
	nPiv int         // product-form pivots since reset/refactorize
}

func (f *denseFactor) age() int           { return f.nPiv }
func (f *denseFactor) refactorEvery() int { return etaRefactorEvery }
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
func (f *denseFactor) refactorize(std *standard, basis []int) refactorOutcome {
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

// The nonzero-list forms compute the dense result plus a scan: every call
// overwrites all of out, and the list names every nonzero, ascending.
func (f *denseFactor) ftranColNz(col []entry, out []float64, prev []int32) []int32 {
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
	return scanNz(out, prev)
}

func (f *denseFactor) btranUnitNz(r int, out []float64, prev []int32) []int32 {
	copy(out, f.binv[r])
	return scanNz(out, prev)
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

func (f *denseFactor) updateNz(r int, w []float64, _ []int32) {
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

// ftranColRef is the dense reference for ftranColNz: f's ftranDense of the
// scattered column.
func ftranColRef(f factor, col []entry, out []float64) {
	x := make([]float64, len(out))
	for _, e := range col {
		x[e.row] = e.val
	}
	f.ftranDense(x, out)
}

// btranUnitRef is the dense reference for btranUnitNz: f's btran of the
// unit vector e_r.
func btranUnitRef(f factor, r int, out []float64) {
	x := make([]float64, len(out))
	x[r] = 1
	f.btran(x, out)
}

// scanNz lists v's nonzero indices, ascending, reusing nz's storage.
func scanNz(v []float64, nz []int32) []int32 {
	nz = nz[:0]
	for i, x := range v {
		if x != 0 {
			nz = append(nz, int32(i))
		}
	}
	return nz
}
