package lp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// randSparseBasis builds a standardized skeleton whose columns 0..m-1 form a
// nonsingular sparse basis: a shuffled diagonally dominant matrix with a
// couple of off-diagonal nonzeros per column.
func randSparseBasis(r *rand.Rand, m int) (*standard, []int) {
	std := &standard{m: m, n: m, cols: make([][]entry, m)}
	for j := 0; j < m; j++ {
		col := []entry{{row: j, val: 2 + r.Float64()}}
		for k := 0; k < 2; k++ {
			if i := r.Intn(m); i != j {
				col = append(col, entry{row: i, val: r.Float64() - 0.5})
			}
		}
		std.cols[j] = coalesce(col)
	}
	basis := make([]int, m)
	for i := range basis {
		basis[i] = i
	}
	r.Shuffle(m, func(a, b int) { basis[a], basis[b] = basis[b], basis[a] })
	return std, basis
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// compareKernels checks that two factorizations answer every FTRAN/BTRAN
// form identically (within tol) on random probes.
func compareKernels(t *testing.T, r *rand.Rand, lu, dn factor, m int, tol float64, ctx string) {
	t.Helper()
	probeCol := make([]entry, 0, 3)
	for k := 0; k < 3; k++ {
		probeCol = append(probeCol, entry{row: r.Intn(m), val: r.Float64() + 0.1})
	}
	probeCol = coalesce(probeCol)
	dense := make([]float64, m)
	for i := range dense {
		dense[i] = r.Float64() - 0.5
	}
	a1, a2 := make([]float64, m), make([]float64, m)

	ftranColRef(lu, probeCol, a1)
	ftranColRef(dn, probeCol, a2)
	if d := maxAbsDiff(a1, a2); d > tol {
		t.Fatalf("%s: ftran mismatch %g", ctx, d)
	}
	lu.ftranDense(dense, a1)
	dn.ftranDense(dense, a2)
	if d := maxAbsDiff(a1, a2); d > tol {
		t.Fatalf("%s: ftranDense mismatch %g", ctx, d)
	}
	lu.btran(dense, a1)
	dn.btran(dense, a2)
	if d := maxAbsDiff(a1, a2); d > tol {
		t.Fatalf("%s: btran mismatch %g", ctx, d)
	}
	for rr := 0; rr < m; rr++ {
		btranUnitRef(lu, rr, a1)
		btranUnitRef(dn, rr, a2)
		if d := maxAbsDiff(a1, a2); d > tol {
			t.Fatalf("%s: btran(e_%d) mismatch %g", ctx, rr, d)
		}
	}
}

// TestLUMatchesDenseOnRandomBases: a fresh sparse LU factorization must
// agree with the dense Gauss-Jordan inverse on every solve form.
func TestLUMatchesDenseOnRandomBases(t *testing.T) {
	for _, m := range []int{1, 2, 5, 17, 40, 73} {
		for trial := 0; trial < 4; trial++ {
			r := rand.New(rand.NewSource(int64(100*m + trial)))
			std, basis := randSparseBasis(r, m)
			lu, dn := newKernel(false), newKernel(true)
			lu.reset(m)
			dn.reset(m)
			if out := lu.refactorize(std, basis, time.Time{}); out != refactorOK {
				t.Fatalf("m=%d trial=%d: lu refactorize outcome %v", m, trial, out)
			}
			if out := dn.refactorize(std, basis, time.Time{}); out != refactorOK {
				t.Fatalf("m=%d trial=%d: dense refactorize outcome %v", m, trial, out)
			}
			compareKernels(t, r, lu, dn, m, 1e-9, "fresh")
		}
	}
}

// TestLUEtaUpdatesMatchDense: after a chain of product-form updates the eta
// file must keep agreeing with (a) the dense kernel fed the same pivots and
// (b) a fresh factorization of the mutated basis — the ground truth.
func TestLUEtaUpdatesMatchDense(t *testing.T) {
	const m = 23
	for trial := 0; trial < 4; trial++ {
		r := rand.New(rand.NewSource(int64(900 + trial)))
		std, basis := randSparseBasis(r, m)
		lu, dn := newKernel(false), newKernel(true)
		lu.reset(m)
		dn.reset(m)
		if lu.refactorize(std, basis, time.Time{}) != refactorOK ||
			dn.refactorize(std, basis, time.Time{}) != refactorOK {
			t.Fatal("refactorize failed on a nonsingular basis")
		}
		w := make([]float64, m)
		wCopy := make([]float64, m)
		updates := 0
		for step := 0; step < 60 && updates < 12; step++ {
			// Random entering column, appended to the skeleton so a fresh
			// refactorization can rebuild the mutated basis later.
			col := []entry{{row: r.Intn(m), val: 1 + r.Float64()}}
			for k := 0; k < 3; k++ {
				col = append(col, entry{row: r.Intn(m), val: r.Float64() - 0.5})
			}
			col = coalesce(col)
			ftranColRef(lu, col, w)
			pr, best := -1, 0.3 // only accept well-conditioned pivots
			for i := range w {
				if v := math.Abs(w[i]); v > best {
					pr, best = i, v
				}
			}
			if pr < 0 {
				continue
			}
			copy(wCopy, w)
			lu.updateNz(pr, w, nil)
			dn.updateNz(pr, wCopy, nil)
			std.cols = append(std.cols, col)
			basis[pr] = std.n
			std.n++
			updates++
		}
		if updates < 6 {
			t.Fatalf("trial %d: only %d usable updates", trial, updates)
		}
		if lu.age() != updates || dn.age() != updates {
			t.Fatalf("age mismatch: lu=%d dense=%d want %d", lu.age(), dn.age(), updates)
		}
		compareKernels(t, r, lu, dn, m, 1e-7, "after etas")

		// Ground truth: refactorize fresh kernels on the mutated basis.
		fresh := newKernel(false)
		fresh.reset(m)
		if fresh.refactorize(std, basis, time.Time{}) != refactorOK {
			t.Fatal("fresh refactorize of mutated basis failed")
		}
		compareKernels(t, r, lu, fresh, m, 1e-6, "etas vs fresh LU")
		if fresh.age() != 0 {
			t.Fatalf("refactorize must reset age, got %d", fresh.age())
		}
	}
}

// TestFactorSingularDetection: a structurally singular basis (duplicated
// column) must be reported by both kernels, not silently mis-factorized.
func TestFactorSingularDetection(t *testing.T) {
	const m = 9
	r := rand.New(rand.NewSource(7))
	std, basis := randSparseBasis(r, m)
	basis[3] = basis[6] // duplicate column => singular B
	for _, dense := range []bool{false, true} {
		f := newKernel(dense)
		f.reset(m)
		if out := f.refactorize(std, basis, time.Time{}); out != refactorSingular {
			t.Fatalf("dense=%v: singular basis gave outcome %v", dense, out)
		}
	}
}

// TestRefactorizeHonorsDeadline: an expired TimeBudget deadline must abort
// the factorization itself with refactorTimeout — the PR-3 guardrail
// extended inside the kernels, so one huge refactorization cannot blow a
// control-loop step budget.
func TestRefactorizeHonorsDeadline(t *testing.T) {
	const m = 50
	r := rand.New(rand.NewSource(11))
	std, basis := randSparseBasis(r, m)
	expired := time.Now().Add(-time.Second)
	for _, dense := range []bool{false, true} {
		f := newKernel(dense)
		f.reset(m)
		if out := f.refactorize(std, basis, expired); out != refactorTimeout {
			t.Fatalf("dense=%v: expired deadline gave outcome %v", dense, out)
		}
	}
}

// TestLUGrowthTriggersRefactor: piling dense-ish eta updates onto a sparse
// factorization must eventually trip wantRefactor (the eta-file growth
// policy), and the subsequent refactorization must restore accuracy.
func TestLUGrowthTriggersRefactor(t *testing.T) {
	const m = 12
	r := rand.New(rand.NewSource(21))
	std, basis := randSparseBasis(r, m)
	lu := newKernel(false)
	lu.reset(m)
	if lu.refactorize(std, basis, time.Time{}) != refactorOK {
		t.Fatal("refactorize failed")
	}
	w := make([]float64, m)
	tripped := false
	for step := 0; step < 400; step++ {
		col := make([]entry, 0, m)
		for i := 0; i < m; i++ {
			col = append(col, entry{row: i, val: r.Float64() + 0.05})
		}
		ftranColRef(lu, col, w)
		pr, best := -1, 0.2
		for i := range w {
			if v := math.Abs(w[i]); v > best {
				pr, best = i, v
			}
		}
		if pr < 0 {
			continue
		}
		lu.updateNz(pr, w, nil)
		std.cols = append(std.cols, col)
		basis[pr] = std.n
		std.n++
		if lu.wantRefactor() {
			tripped = true
			break
		}
	}
	if !tripped {
		t.Fatal("eta-file growth never tripped wantRefactor")
	}
	if lu.refactorize(std, basis, time.Time{}) != refactorOK {
		t.Fatal("refactorize after growth failed")
	}
	if lu.wantRefactor() || lu.age() != 0 {
		t.Fatal("refactorize must clear the growth trigger and the eta file")
	}
	dn := newKernel(true)
	dn.reset(m)
	if dn.refactorize(std, basis, time.Time{}) != refactorOK {
		t.Fatal("dense refactorize failed")
	}
	compareKernels(t, r, lu, dn, m, 1e-8, "post-growth refactor")
}

// TestFTFillGrowthTrigger pins the adaptive refactorization policy of the
// Forrest–Tomlin kernel: wantRefactor fires on measured update fill (spike
// entries plus absorbed op multipliers) crossing the factor-relative limit,
// not on any fixed pivot-count cadence — the solver's cadence constant is
// only a numerical-drift backstop in FT mode. The boundary arithmetic is
// asserted exactly, then a real update chain is checked to (a) accumulate
// fill and (b) clear the trigger state on refactorize.
func TestFTFillGrowthTrigger(t *testing.T) {
	m := LargeModelRows // the smallest model the solver hands this kernel
	f := &ftFactor{}
	f.reset(m)
	if f.wantRefactor() {
		t.Fatal("fresh identity factor must not want a refactorization")
	}
	limit := ftGrowthLimit*f.baseNnz + 4*f.m
	f.ftNnz = limit
	if f.wantRefactor() {
		t.Fatal("fill at the limit must not trigger (ceiling is inclusive)")
	}
	f.ftNnz = limit + 1
	if !f.wantRefactor() {
		t.Fatal("fill beyond the limit must trigger")
	}
	f.ftNnz = 0

	// A real pivot accumulates measured fill, and a refactorization resets
	// both the fill counter and the update age.
	r := rand.New(rand.NewSource(53))
	std, basis := bigStaircaseBasis(r, m)
	if f.refactorize(std, basis, time.Time{}) != refactorOK {
		t.Fatal("refactorize failed")
	}
	w := make([]float64, m)
	var wPrev []int32
	for piv := 0; piv < 50 && f.ftNnz == 0; piv++ {
		q := r.Intn(m)
		wPrev = f.ftranColNz(std.cols[q], w, wPrev)
		for _, i := range wPrev {
			if math.Abs(w[i]) > 0.3 {
				f.updateNz(int(i), w, wPrev)
				basis[i] = q
				break
			}
		}
	}
	if f.ftNnz == 0 || f.nupd == 0 {
		t.Fatalf("update chain accumulated no measured fill (ftNnz=%d nupd=%d)", f.ftNnz, f.nupd)
	}
	if f.refactorize(std, basis, time.Time{}) != refactorOK {
		t.Fatal("refactorize of updated basis failed")
	}
	if f.ftNnz != 0 || f.age() != 0 || f.wantRefactor() {
		t.Fatalf("refactorize must reset the fill trigger (ftNnz=%d age=%d)", f.ftNnz, f.age())
	}
}

// TestFactorCloneIsolation: clone() must be a deep snapshot for both
// kernels — updates on the original after cloning (the exact aliasing
// hazard the old dense capture had) must not leak into the clone, and vice
// versa.
func TestFactorCloneIsolation(t *testing.T) {
	const m = 15
	for _, dense := range []bool{false, true} {
		r := rand.New(rand.NewSource(31))
		std, basis := randSparseBasis(r, m)
		f := newKernel(dense)
		f.reset(m)
		if f.refactorize(std, basis, time.Time{}) != refactorOK {
			t.Fatalf("dense=%v: refactorize failed", dense)
		}
		// Put one eta on the original so the clone must snapshot a
		// non-trivial pivot history too.
		w := make([]float64, m)
		col := []entry{{row: 2, val: 1.5}, {row: 7, val: -0.4}}
		ftranColRef(f, col, w)
		f.updateNz(2, w, nil)

		probe := make([]float64, m)
		for i := range probe {
			probe[i] = r.Float64() - 0.5
		}
		before := make([]float64, m)
		f.ftranDense(probe, before)

		snap := f.clone()
		if snap.age() != f.age() || reflect.TypeOf(snap) != reflect.TypeOf(f) {
			t.Fatalf("dense=%v: clone metadata mismatch", dense)
		}

		// Mutate the original: several more pivots and then a full
		// refactorization (both mutation classes the snapshot must survive).
		for k := 0; k < 5; k++ {
			col := []entry{{row: (3*k + 1) % m, val: 2 + float64(k)}, {row: (k + 5) % m, val: 0.3}}
			ftranColRef(f, col, w)
			pr := 0
			for i := range w {
				if math.Abs(w[i]) > math.Abs(w[pr]) {
					pr = i
				}
			}
			f.updateNz(pr, w, nil)
		}
		f.refactorize(std, basis, time.Time{})

		after := make([]float64, m)
		snap.ftranDense(probe, after)
		if d := maxAbsDiff(before, after); d != 0 {
			t.Fatalf("dense=%v: mutating the original changed the clone by %g", dense, d)
		}

		// And the other direction: pivoting on the clone must not disturb
		// the (freshly refactorized) original.
		f.ftranDense(probe, before)
		ftranColRef(snap, col, w)
		snap.updateNz(1, w, nil)
		f.ftranDense(probe, after)
		if d := maxAbsDiff(before, after); d != 0 {
			t.Fatalf("dense=%v: mutating the clone changed the original by %g", dense, d)
		}
	}
}

// TestEtaCloneSurvivesFailedRefactorize: a refactorization that ends
// singular must leave the kernel no more able to write through arrays a
// clone views than one that succeeded. Either side of a clone fails its
// first refactorize, then rebuilds (refactorize of another basis, or reset)
// and pivots; the other side's answers, dense and nonzero-list, and its eta
// reader index must not move by a bit. This is the warm-install path when a
// transplanted factor meets a singular basis and the solve recovers or
// retries cold while the caller keeps its *Basis.
func TestEtaCloneSurvivesFailedRefactorize(t *testing.T) {
	const m = 15
	r := rand.New(rand.NewSource(31))
	std, basis := randSparseBasis(r, m)
	other, otherBasis := randSparseBasis(r, m)
	singular := append([]int(nil), basis...)
	singular[1] = singular[0]

	w := make([]float64, m)
	var wl []int32
	pivot := func(f *etaFactor, col []entry) {
		wl = f.ftranColNz(col, w, wl)
		pr := wl[0]
		for _, i := range wl {
			if math.Abs(w[i]) > math.Abs(w[pr]) {
				pr = i
			}
		}
		f.updateNz(int(pr), w, wl)
	}
	answers := func(f *etaFactor) []float64 {
		var all []float64
		out, fo, bo := make([]float64, m), make([]float64, m), make([]float64, m)
		var fl, bl []int32
		for j := 0; j < m; j++ {
			ftranColRef(f, std.cols[j], out)
			fl = f.ftranColNz(std.cols[j], fo, fl)
			all = append(append(all, out...), fo...)
			btranUnitRef(f, j, out)
			bl = f.btranUnitNz(j, bo, bl)
			all = append(append(all, out...), bo...)
			for _, i := range append(fl, bl...) {
				all = append(all, float64(i))
			}
		}
		return all
	}
	index := func(f *etaFactor) [][]int32 {
		rows := make([][]int32, len(f.etaRows))
		for p, l := range f.etaRows {
			rows[p] = append([]int32{}, l...)
		}
		return rows
	}

	for _, failOnClone := range []bool{true, false} {
		for _, retryReset := range []bool{false, true} {
			kept := &etaFactor{}
			kept.reset(m)
			if kept.refactorize(std, basis, time.Time{}) != refactorOK {
				t.Fatal("refactorize failed")
			}
			for k := 0; k < 3; k++ {
				pivot(kept, []entry{{row: 2 + k, val: 1.5}, {row: 7 + k, val: -0.4}})
			}
			mut := kept.clone().(*etaFactor)
			if !failOnClone {
				kept, mut = mut, kept
			}
			want, wantIndex := answers(kept), index(kept)

			if out := mut.refactorize(std, singular, time.Time{}); out != refactorSingular {
				t.Fatalf("duplicated column refactorized with outcome %d", out)
			}
			if retryReset {
				mut.reset(m)
			} else if mut.refactorize(other, otherBasis, time.Time{}) != refactorOK {
				t.Fatal("refactorize after the singular one failed")
			}
			for k := 0; k < 5; k++ {
				pivot(mut, []entry{{row: (3*k + 1) % m, val: 2 + float64(k)}, {row: (k + 5) % m, val: 0.3}})
			}

			if got := answers(kept); !reflect.DeepEqual(got, want) {
				t.Errorf("failOnClone=%v retryReset=%v: rebuilding one side after a singular refactorize changed the other by %g",
					failOnClone, retryReset, maxAbsDiff(got, want))
			}
			if got := index(kept); !reflect.DeepEqual(got, wantIndex) {
				t.Errorf("failOnClone=%v retryReset=%v: rebuilding one side changed the other's eta reader index", failOnClone, retryReset)
			}
		}
	}
}

// checkNzBits holds a nonzero-list answer to the dense answer of the same
// operation: the list duplicate-free and, when rank is given, strictly
// ascending in rank; every entry off it an exact +0 where the dense answer
// is a zero too; and every nonzero of either bit-identical to the other's.
// A zero's sign is the one thing the dense passes write that a worklist
// never visits, so zeros are compared as zeros.
func checkNzBits(t *testing.T, dense, sparse []float64, nz []int32, rank func(int32) int, ctx string) {
	t.Helper()
	on := make([]bool, len(dense))
	for k, i := range nz {
		if on[i] {
			t.Fatalf("%s: %d listed twice", ctx, i)
		}
		if rank != nil && k > 0 && rank(i) <= rank(nz[k-1]) {
			t.Fatalf("%s: list out of order at %d: %d after %d", ctx, k, i, nz[k-1])
		}
		on[i] = true
	}
	for i, d := range dense {
		s := sparse[i]
		if !on[i] && (math.Float64bits(s) != 0 || d != 0) {
			t.Fatalf("%s: entry %d off the list: nz %g, dense %g", ctx, i, s, d)
		}
		if (s != 0 || d != 0) && math.Float64bits(s) != math.Float64bits(d) {
			t.Fatalf("%s: entry %d: nz %x, dense %x", ctx, i, math.Float64bits(s), math.Float64bits(d))
		}
	}
}

// ascending ranks a list entry by itself: the eta kernel's lists ascend.
func ascending(i int32) int { return int(i) }

// TestEtaNzMatchesDense: the eta kernel's three nonzero-list calls against
// its own dense ones, bit for bit. Two kernels over one random basis take
// the same pivots — one through ftranColNz and list-fed updateNz, the other
// through ftranDense of the scattered column and scan-fed updateNz — along
// eta chains from 0 up to etaRefactorEvery long,
// and at checkpoints every FTRAN and BTRAN form must agree. Half-way the
// pair is cloned and both pairs pivot on separately, so a clone that
// disturbed its parent's reader index (or the other way round) shows up as
// a mismatch within a pair: the dense BTRAN never reads the index.
func TestEtaNzMatchesDense(t *testing.T) {
	// band > 0 keeps every nonzero of the basis and of the entering columns
	// within band rows of the diagonal, so B⁻¹ and the etas stay sparse and
	// a BTRAN reaches only part of the eta file; band 0 scatters them.
	for _, c := range []struct{ m, band int }{{1, 0}, {6, 0}, {29, 0}, {64, 0}, {300, 2}} {
		m := c.m
		r := rand.New(rand.NewSource(int64(7000 + m)))
		near := func(i int) int {
			if c.band == 0 {
				return r.Intn(m)
			}
			return min(m-1, max(0, i+r.Intn(2*c.band+1)-c.band))
		}
		std := &standard{m: m, n: m, cols: make([][]entry, m)}
		for j := range std.cols {
			std.cols[j] = coalesce([]entry{{row: j, val: 2 + r.Float64()}, {row: near(j), val: r.Float64() - 0.5}})
		}
		basis := r.Perm(m)
		nzK, dnK := &etaFactor{}, &etaFactor{}
		for _, f := range []*etaFactor{nzK, dnK} {
			f.reset(m)
			if f.refactorize(std, basis, time.Time{}) != refactorOK {
				t.Fatalf("m=%d: refactorize failed", m)
			}
		}
		type pair struct{ nz, dn *etaFactor }
		pairs := []pair{{nzK, dnK}}
		randCol := func() []entry {
			i := r.Intn(m)
			col := []entry{{row: i, val: 1 + r.Float64()}}
			for k := 0; k < 2; k++ {
				col = append(col, entry{row: near(i), val: r.Float64() - 0.5})
			}
			return coalesce(col)
		}
		// One output buffer per list, as the nonzero-list contract asks.
		wNz, wDn := make([]float64, m), make([]float64, m)
		fOut, bOut, dOut := make([]float64, m), make([]float64, m), make([]float64, m)
		var wList, fList, bList []int32
		check := func(p pair, ctx string) {
			t.Helper()
			for k := 0; k < 3; k++ {
				col := randCol()
				fList = p.nz.ftranColNz(col, fOut, fList)
				ftranColRef(p.dn, col, dOut)
				checkNzBits(t, dOut, fOut, fList, ascending, ctx+": ftran")
			}
			for rr := 0; rr < m; rr++ {
				bList = p.nz.btranUnitNz(rr, bOut, bList)
				btranUnitRef(p.dn, rr, dOut)
				checkNzBits(t, dOut, bOut, bList, ascending, ctx+": btran")
			}
		}
		pivot := func(p pair) bool {
			col := randCol()
			wList = p.nz.ftranColNz(col, wNz, wList)
			ftranColRef(p.dn, col, wDn)
			pr := -1
			for _, i := range wList {
				if math.Abs(wNz[i]) > 0.3 && (pr < 0 || math.Abs(wNz[i]) > math.Abs(wNz[pr])) {
					pr = int(i)
				}
			}
			if pr < 0 {
				return false
			}
			p.nz.updateNz(pr, wNz, wList)
			p.dn.updateNz(pr, wDn, nil)
			return true
		}
		next := 1
		for step := 0; nzK.age() < etaRefactorEvery && step < 8*etaRefactorEvery; step++ {
			if age := nzK.age(); age+1 >= next || age == 0 {
				for i, p := range pairs {
					check(p, fmt.Sprintf("m=%d side %d age %d", m, i, p.nz.age()))
				}
				next = 2*age + 1
			}
			if nzK.age() == etaRefactorEvery/2 && len(pairs) == 1 {
				// The clones run a few etas ahead, so the two sides' eta
				// files differ from here on at every index.
				c := pair{nzK.clone().(*etaFactor), dnK.clone().(*etaFactor)}
				for c.nz.age() < nzK.age()+3 {
					pivot(c)
				}
				pairs = append(pairs, c)
			}
			for _, p := range pairs {
				pivot(p)
			}
		}
		if nzK.age() != etaRefactorEvery {
			t.Fatalf("m=%d: chain stopped at %d etas", m, nzK.age())
		}
		for i, p := range pairs {
			if p.nz.age() != p.dn.age() || !reflect.DeepEqual(p.nz.etaRows, p.dn.etaRows) {
				t.Fatalf("m=%d side %d: the two update forms built different eta files", m, i)
			}
			check(p, fmt.Sprintf("m=%d side %d end", m, i))
		}
	}
}

// TestFTNzMatchesDense is TestEtaNzMatchesDense for the Forrest–Tomlin
// kernel: along update chains from 0 up to 300 pivots on a staircase basis,
// each kernel's ftranColNz/btranUnitNz must equal its own dense
// solveForward/solveBackward bit for bit, and the FTRAN list must come back
// in strictly descending logical order. Pivots alternate between the stash-
// fed updateNz and the scan-fed one (nil list), and probe columns of 3 and of m/8
// entries reach a handful of steps and a large share of them. Half-way the
// kernel is cloned and both copies pivot on separately, so a clone that
// shared its parent's reader index shows up as a mismatch on one side: the
// dense solves never read it.
func TestFTNzMatchesDense(t *testing.T) {
	const m, chain = 2048, 300
	r := rand.New(rand.NewSource(29))
	std, basis := bigStaircaseBasis(r, m)
	kernel := &ftFactor{}
	kernel.reset(m)
	if kernel.refactorize(std, basis, time.Time{}) != refactorOK {
		t.Fatal("refactorize failed")
	}
	randCol := func(width int) []entry {
		i := r.Intn(m)
		col := []entry{{row: i, val: 1 + r.Float64()}}
		for k := 1; k < width; k++ {
			col = append(col, entry{row: min(m-1, i+r.Intn(3)), val: r.Float64() - 0.5})
			if width > 3 {
				i = r.Intn(m)
			}
		}
		return coalesce(col)
	}
	w, wCopy := make([]float64, m), make([]float64, m)
	fOut, bOut, dOut := make([]float64, m), make([]float64, m), make([]float64, m)
	var wList, fList, bList []int32
	check := func(f *ftFactor, ctx string) {
		t.Helper()
		descending := func(p int32) int { return -int(f.ord[f.posStep[p]]) }
		for _, width := range []int{3, m / 8} {
			col := randCol(width)
			fList = f.ftranColNz(col, fOut, fList)
			ftranColRef(f, col, dOut)
			checkNzBits(t, dOut, fOut, fList, descending, fmt.Sprintf("%s: ftran width %d", ctx, width))
		}
		for k := 0; k < 64; k++ {
			rr := r.Intn(m)
			bList = f.btranUnitNz(rr, bOut, bList)
			btranUnitRef(f, rr, dOut)
			checkNzBits(t, dOut, bOut, bList, nil, ctx+": btran")
		}
	}
	pivot := func(f *ftFactor) {
		for {
			wList = f.ftranColNz(randCol(3), w, wList)
			pr := -1
			for _, i := range wList {
				if math.Abs(w[i]) > 0.3 && (pr < 0 || math.Abs(w[i]) > math.Abs(w[pr])) {
					pr = int(i)
				}
			}
			if pr < 0 {
				continue
			}
			if f.age()%2 == 0 {
				f.updateNz(pr, w, wList)
			} else {
				copy(wCopy, w) // not the stashed buffer: the spike is rebuilt from w
				f.updateNz(pr, wCopy, nil)
			}
			return
		}
	}
	sides := []*ftFactor{kernel}
	next := 0
	for kernel.age() < chain {
		if age := kernel.age(); age == next {
			for i, f := range sides {
				check(f, fmt.Sprintf("side %d age %d", i, f.age()))
			}
			next = 2*age + 1
		}
		if kernel.age() == chain/2 && len(sides) == 1 {
			c := kernel.clone().(*ftFactor)
			for c.age() < kernel.age()+3 {
				pivot(c)
			}
			sides = append(sides, c)
		}
		for _, f := range sides {
			pivot(f)
		}
	}
	if len(kernel.ftRuns) == 0 {
		t.Fatal("the chain appended no update runs")
	}
	for i, f := range sides {
		check(f, fmt.Sprintf("side %d end", i))
	}
}

// TestHeapMatchesSort: the Markowitz bucket heap pops in sort's order —
// ascending as is, descending through negated keys — on random keys with
// duplicates, with a second batch pushed between pops as the buckets are
// mid-refactorization.
func TestHeapMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(300)
		keys := make([]int32, n)
		for i := range keys {
			keys[i] = int32(r.Intn(n/2 + 1)) // about two copies of each key
		}
		for _, descending := range []bool{false, true} {
			checkHeapOrder(t, keys, descending)
		}
	}
}

func checkHeapOrder(t *testing.T, keys []int32, descending bool) {
	t.Helper()
	sign := int32(1)
	if descending {
		sign = -1
	}
	sorted := func(ks []int32) []int32 {
		out := append([]int32(nil), ks...)
		sort.Slice(out, func(a, b int) bool { return sign*out[a] < sign*out[b] })
		return out
	}
	var h []int32
	pop := func(want []int32, ctx string) {
		t.Helper()
		for i, w := range want {
			var got int32
			if got, h = heapPop(h); sign*got != w {
				t.Fatalf("descending=%v, %s pop %d: got %d, want %d", descending, ctx, i, sign*got, w)
			}
		}
	}
	half := len(keys) / 2
	for _, k := range keys[:half] {
		h = heapPush(h, sign*k)
	}
	first := sorted(keys[:half])
	pop(first[:half/2], "first-batch")
	for _, k := range keys[half:] {
		h = heapPush(h, sign*k)
	}
	pop(sorted(append(first[half/2:], keys[half:]...)), "merged")
	if len(h) != 0 {
		t.Fatalf("descending=%v: %d keys left after popping every one pushed", descending, len(h))
	}
}
