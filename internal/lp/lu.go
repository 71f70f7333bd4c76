package lp

import (
	"math"
	"math/bits"
	"time"
)

// luFactor is the sparse LU factorization of the basis, with Markowitz-style
// pivot ordering, that both production kernels are built on. They differ in
// how pivots since the last factorization are absorbed, and the model's size
// (standard.large, decided once in standardize) picks one for the whole solve:
//
//   - etaFactor, small models: the product-form eta file. updateNz appends
//     an eta vector, FTRAN applies the file last in order and BTRAN first in
//     reverse — the hyper-sparse BTRAN only the etas a per-position reader
//     index (etaRows) reaches. Its nonzero lists come back ascending, so
//     every list-driven loop of the simplex visits entries in the order
//     the dense loop over all m did.
//   - ftFactor, large models: Forrest–Tomlin. Each pivot rewrites the U
//     factor in place — the entering column's spike v = U·w̃ replaces U's
//     column at the leaving step, the step moves to the end of a *logical*
//     pivot order, and the leaving step's old row is eliminated against the
//     rows below it, appending row-elimination multipliers (ftOps) that
//     FTRAN applies to the right-hand side after L and BTRAN applies
//     transposed in reverse. FTRAN/BTRAN stay pure L/U triangular solves, so
//     per-pivot solve cost tracks the (slowly growing) factor fill rather
//     than the pivot count since the last refactorization. Its FTRAN list
//     comes back in descending logical order, its BTRAN list in worklist
//     order.
//
// Both serve the simplex's pivot vectors through the hyper-sparse
// (nonzero-list) entry points, which share the L-side worklist passes
// (lPassNz, btranLTranspose); the dense entry points are their independent
// reference.
//
// Both stay because a bench row says so: Forrest–Tomlin forced at every
// size costs loop-wan16 (m < LargeModelRows) 0.95% of its welfare and 39%
// more wall clock (DESIGN.md §13), and at paper scale the eta file is what
// Forrest–Tomlin replaced (DESIGN.md §15: 281 refactorizations → 27).
//
// Representation. Factorization of B (rows = constraint rows, columns =
// basis positions) by right-looking Gaussian elimination choosing pivot
// (i,j) to minimize the Markowitz cost (r_i−1)(c_j−1) subject to threshold
// stability |a_ij| ≥ tau·max|column j|:
//
//   - lops: the elimination multipliers in application order; applying them
//     to a right-hand side is the L⁻¹ pass (row space, no permutation
//     needed because each op names original row indices).
//   - urows/udiag + permRow/permPos: the rows that became pivot rows, i.e.
//     U in elimination order; entries are indexed by elimination step so
//     back-substitution (FTRAN) and the transposed forward solve (BTRAN)
//     are direct slice walks. In ftFactor the *iteration* order is the
//     logical order (the ord keys), which starts equal to step order and
//     diverges as updates move steps to the end; the triangular invariant
//     ord[row] < ord[col] holds for every off-diagonal entry.
//
// All iteration orders are slice-deterministic: two solves of the same
// model pivot identically (warm-start determinism tests rely on this).
type luFactor struct {
	m       int
	lops    []lop   // L⁻¹ as elimination ops, in application order
	ur      [][]lue // U row per elimination step k: entries at steps > k
	ud      []float64
	permRow []int32 // step k -> original constraint row
	permPos []int32 // step k -> basis position

	baseNnz int  // nnz(L)+nnz(U) at factorization, anchors the growth policies
	drift   bool // an ill-conditioned update pivot was absorbed

	// lrPtr/lrIdx maps each constraint row r to the L-op indices that read
	// out[r] (BTRAN's transposed-pass dependents). Stable between
	// refactorize/reset calls and shared by clones (the `shared` flag below
	// keeps a clone's view immutable), like the factorization itself.
	lrPtr, lrIdx []int32

	// Permutation inverses and the row→op map: posStep is the inverse of
	// permPos (basis position → elimination step), stepOfRow the inverse of
	// permRow, and rowOp[r] the index of the elimination op whose pivot row
	// is r (-1 when row r generated no multipliers). Stable between
	// refactorize/reset calls, shared by clones under the `shared` flag.
	posStep   []int32
	stepOfRow []int32
	rowOp     []int32

	xwork []float64 // row-space scratch
	zwork []float64 // elimination-order scratch
	umark []bool    // FTRAN U-solve reachability marks (self-clearing)
	lmark []bool    // BTRAN L-op reachability marks (cleared per solve)

	// mkz holds the refactorization working set (active matrix, Markowitz
	// count buckets). It is reused across refactorizations — on paper-scale
	// models the active-matrix slices are the bulk of a refactorization's
	// allocations — and never shared with clones (the factorization output
	// slices are the immutable product; the scratch is not).
	mkz *markowitzScratch

	// shared marks the factorization output slices (lops/ur/ud/perms/
	// transposes and the arenas backing them) as visible to a clone. It is
	// set on BOTH sides of every clone() call; while set, refactorize and
	// reset allocate fresh outputs instead of recycling the previous ones,
	// and the eta arena is abandoned rather than rewound. The first
	// refactorize after a clone therefore pays one full allocation round and
	// clears the flag; steady-state solve loops (hundreds of
	// refactorizations per Paper-scale cold solve) recycle everything.
	shared bool

	// Arenas backing the per-step/per-pivot small slices, recycled across
	// refactorizations when not shared: lueArena backs ur's step rows,
	// opArena the lops multiplier lists.
	lueArena []lue
	opArena  []entry

	// Hyper-sparse solve scratch, private to each kernel (a clone allocates
	// its own on first use). sxw (row space; position space in the eta
	// kernel's BTRAN) and szw (step space) are kept all-zero between calls —
	// each call clears exactly what it touched — and so are the marks:
	// opBits, the L passes' op worklist (a bitset the pass drains as it
	// sweeps), and rmark, which dedupes a BTRAN's row list.
	sxw, szw   []float64
	opBits     []uint64
	rmark      []bool
	lstA, lstB []int32
}

// etaFactor is luFactor plus the product-form eta file (see luFactor).
type etaFactor struct {
	luFactor

	// etas are the updates E_1…E_k appended by updateNz: B = B₀E₁…E_k, so
	// FTRAN applies them last in order and BTRAN first in reverse. etaArena
	// backs their nonzero lists (append-carved with a capped three-index
	// expression, so a mid-carve growth leaves earlier, already-published
	// slices on the old backing array — write-once, never revisited).
	etas     []eta
	etaNnz   int
	etaArena []entry

	// etaRows[p] lists, ascending, the etas that read or write basis
	// position p: the hyper-sparse BTRAN's reader index, appended with the
	// eta file. It is private to each kernel — no clone ever views it, so
	// it recycles in place — and a kernel without one (a clone, or one own
	// reallocated) builds it from its eta file on first use (indexEtas).
	etaRows [][]int32

	// Hyper-sparse solve scratch: mbits is an m-bit worklist (steps, then
	// positions or rows, within one call) and ebits the BTRAN's eta
	// worklist, both all-zero between calls.
	mbits, ebits []uint64

	// ucPtr/ucIdx is a CSR map from elimination step k to the earlier steps
	// whose U rows reference z[k] (FTRAN's back-substitution dependents),
	// stable and shared with clones like lrPtr/lrIdx.
	ucPtr, ucIdx []int32
}

// ftFactor is luFactor plus the Forrest–Tomlin update state (see luFactor)
// and the working set of the hyper-sparse solves.
//
// The logical order is kept as keys: ord[k] is step k's key, ordStep maps a
// key back to its step, and an update moving step s to the end gives it the
// next key, len(ordStep). Keys are dense integers in [0, m + updates), so
// every pass in logical order sweeps a bitset over keys (kbits) and visits
// only the steps it reaches; a key a step has since moved off is stale and
// never set.
type ftFactor struct {
	luFactor

	// Update-added U entries never grow the arena-carved static rows: they
	// live in per-row spans of one overflow slab (xrow[k] is row k's span
	// of xs, entries in insertion order, walked newest-first). A row that
	// outgrows its span moves it to the slab's end; the slab is recycled at
	// refactorize, so a pivot's structural writes stay amortized-zero
	// allocations. ucols is the exact dynamic transpose (rows holding a U
	// entry per column), maintained eagerly on every update so the
	// dependency-ordered worklists stay correct as the structure mutates.
	ftOps   []ftOp    // row-elimination ops in application (append) order
	ftRuns  []int32   // start in ftOps of each update's ops (updates that appended none have no run)
	ftNnz   int       // update fill: spike entries + op multipliers absorbed
	nupd    int       // updates since refactorize (the kernel's age)
	ord     []int32   // step -> logical order key, strictly increasing along the order
	ordStep []int32   // key -> step (stale once the step moves on)
	xrow    []xspan   // step -> its overflow span in xs
	xs      []lue     // overflow slab, recycled at refactorize
	ucols   [][]int32 // column step -> rows holding a U entry there (exact)

	// borrowed: the mutable set (ud, ur, ftOps through ucols) is visible to
	// another kernel (see clone). updateNz copies it first (detach);
	// refactorize and reset rebuild it fresh (luFactor.shared, ftReset).
	borrowed bool

	// The FTRAN's step → runs reader index: rdHead[j] heads a newest-first
	// list through rdLink of the runs whose ops read step j. rdN runs are
	// indexed so far; the FTRAN catches up on the rest. Like etaFactor's
	// etaRows it is private to each kernel — a clone starts without one and
	// builds its own on first use.
	rdHead []int32
	rdLink []rdLink
	rdN    int

	// Update scratch. ftb holds the scattered step-space image of the
	// tableau column while the spike is computed, ftw the row-spike working
	// values during elimination; both are kept all-zero between calls.
	// ftmark tags spike-candidate membership and ftlist / ftvals are the
	// candidates and their spike values.
	ftb, ftw []float64
	ftmark   []bool
	ftlist   []int32
	ftvals   []float64

	// Worklist bitsets, all-zero between calls: kbits over logical-order
	// keys (the U passes and the row-spike elimination), rbits over runs
	// (the FTRAN's op pass).
	kbits, rbits []uint64

	// Spike stash: the step-space image F(a) captured by the last hyper-
	// sparse FTRAN, which is exactly the spike column the next update
	// needs. stashPtr identifies the output buffer the FTRAN filled; an
	// update whose w is that same buffer reuses the stash and skips the
	// U·w̃ recomputation. Any update or refactorization invalidates it.
	stashK   []int32
	stashV   []float64
	stashPtr *float64
}

// markowitzScratch is the reusable working set of refactorize. Everything
// here is dead between refactorizations; only slice capacity is retained.
type markowitzScratch struct {
	rowNz    [][]ment  // active matrix rows (by constraint row)
	colRows  [][]int32 // per position: rows that (may) hold a nonzero
	colCount []int
	rowCount []int
	rowDone  []bool
	colDone  []bool
	seen     []int
	inWs     []bool
	posList  []int32

	// Count buckets for the Markowitz candidate search: bucket c is a
	// binary min-heap (by column position) of the active columns with
	// exactly c live entries. heapKey[j] names the bucket holding column
	// j's single valid entry (-1 when done); entries left behind in other
	// buckets by count changes are stale and discarded lazily on pop.
	// valid[c] counts live entries so bucket scans skip empties, and
	// minBucket lower-bounds the lowest non-empty bucket. Together they
	// turn the per-step candidate search from a full O(m) column scan
	// into a few heap operations — the difference between O(m²) and
	// near-O(nnz) refactorizations on paper-scale staircase models.
	heaps     [][]int32
	heapKey   []int32
	valid     []int
	minBucket int
	popped    []int32

	// Singleton queues for the staircase peeling pass (large models only).
	// colQ collects columns whose live count drops to 1 (setColCount feeds
	// it); rowQ collects rows whose live count drops to 1. Entries go stale
	// when counts move on — consumers re-check before use.
	colQ []int32
	rowQ []int32

	// Intermediate U build (position-indexed rows, remapped to steps at the
	// end of refactorize) and the transpose fill cursor. Dead between
	// refactorizations — unlike the factorization outputs these are never
	// shared with clones, so they recycle unconditionally.
	urPos  [][]ment
	uArena []ment
	fill   []int32
}

// ensure sizes every scratch slice for an m-row factorization and resets
// the per-refactorization state, retaining capacity wherever possible.
func (s *markowitzScratch) ensure(m int) {
	if cap(s.rowNz) < m {
		s.rowNz = make([][]ment, m)
		s.colRows = make([][]int32, m)
		s.colCount = make([]int, m)
		s.rowCount = make([]int, m)
		s.rowDone = make([]bool, m)
		s.colDone = make([]bool, m)
		s.seen = make([]int, m)
		s.inWs = make([]bool, m)
		s.heaps = make([][]int32, m+1)
		s.heapKey = make([]int32, m)
		s.valid = make([]int, m+1)
		s.urPos = make([][]ment, m)
		s.fill = make([]int32, m)
	}
	s.rowNz = s.rowNz[:m]
	s.colRows = s.colRows[:m]
	s.colCount = s.colCount[:m]
	s.rowCount = s.rowCount[:m]
	s.rowDone = s.rowDone[:m]
	s.colDone = s.colDone[:m]
	s.seen = s.seen[:m]
	s.inWs = s.inWs[:m]
	s.heaps = s.heaps[:m+1]
	s.heapKey = s.heapKey[:m]
	s.valid = s.valid[:m+1]
	s.urPos = s.urPos[:m]
	s.fill = s.fill[:m]
	for i := 0; i < m; i++ {
		s.rowNz[i] = s.rowNz[i][:0]
		s.colRows[i] = s.colRows[i][:0]
		s.rowDone[i] = false
		s.colDone[i] = false
		s.seen[i] = 0
		s.inWs[i] = false
		s.heapKey[i] = -1
	}
	for c := 0; c <= m; c++ {
		s.heaps[c] = s.heaps[c][:0]
		s.valid[c] = 0
	}
	s.minBucket = 0
	s.colQ = s.colQ[:0]
	s.rowQ = s.rowQ[:0]
}

// setColCount records column j's live-entry count changing to c, moving its
// valid bucket entry. Calls on finished columns are ignored.
func (s *markowitzScratch) setColCount(j int32, c int) {
	s.colCount[j] = c
	if s.colDone[j] {
		return
	}
	if c == 1 {
		s.colQ = append(s.colQ, j)
	}
	if old := s.heapKey[j]; old >= 0 {
		s.valid[old]--
	}
	s.heapKey[j] = int32(c)
	s.valid[c]++
	s.heaps[c] = heapPush(s.heaps[c], j)
	if c < s.minBucket {
		s.minBucket = c
	}
}

// retireCol marks column j finished, invalidating its bucket entry.
func (s *markowitzScratch) retireCol(j int32) {
	s.colDone[j] = true
	if old := s.heapKey[j]; old >= 0 {
		s.valid[old]--
		s.heapKey[j] = -1
	}
}

// candidates fills cand with the (up to) markowitzCandidates active columns
// lowest in (count, position) lexicographic order — exactly the set the
// original full scan selected — and reports how many were found. A false
// second result means an active column has no live entries left (no fill
// can ever reach it), i.e. the basis is structurally singular.
func (s *markowitzScratch) candidates(cand *[markowitzCandidates]int32) (int, bool) {
	if s.valid[0] > 0 {
		return 0, false
	}
	nc := 0
	for c := s.minBucket; c < len(s.valid) && nc < markowitzCandidates; c++ {
		if s.valid[c] == 0 {
			if nc == 0 {
				s.minBucket = c + 1
			}
			continue
		}
		s.popped = s.popped[:0]
		h := s.heaps[c]
		for len(h) > 0 && nc < markowitzCandidates {
			var j int32
			j, h = heapPop(h)
			if s.heapKey[j] != int32(c) || s.colDone[j] {
				continue // stale: dropped for good
			}
			// A count oscillation (c → c' → c) leaves a second, stale
			// entry for j in this bucket that the heapKey test cannot
			// tell from the live one; valid[c] counts it once, so drop
			// repeats here (nc is at most 4, the scan is free).
			dup := false
			for _, p := range s.popped {
				if p == j {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			cand[nc] = j
			nc++
			s.popped = append(s.popped, j)
		}
		for _, j := range s.popped {
			h = heapPush(h, j)
		}
		s.heaps[c] = h
	}
	return nc, true
}

// lue is one off-diagonal U entry: k is the elimination step of the column
// it belongs to (always greater than the owning row's step).
type lue struct {
	k   int32
	val float64
}

// lop is one elimination step's multipliers: x[nz.row] -= nz.val * x[prow].
type lop struct {
	prow int32
	nz   []entry
}

// eta is one product-form update: the basis column at position r was
// replaced by a column with tableau form w (nz holds w's off-pivot
// nonzeros by position, piv = w[r]).
type eta struct {
	r   int32
	piv float64
	nz  []entry // entry.row is a basis position here
}

// ftOp is one Forrest–Tomlin row-elimination multiplier, in step space:
// FTRAN applies z[s] -= val·z[j] to the right-hand side after the L pass,
// BTRAN applies the transpose (z[j] -= val·z[s]) in reverse order.
type ftOp struct {
	s, j int32
	val  float64
}

// xspan is one U row's span of the Forrest–Tomlin overflow slab: n entries
// from off, room for cap.
type xspan struct{ off, n, cap int32 }

// rdLink is one entry of the FTRAN's step → runs index: run reads the step,
// next is the step's previous (older) entry, -1 at the end.
type rdLink struct{ run, next int32 }

const (
	// markowitzTau is the threshold-pivoting stability factor: a pivot
	// must be at least this fraction of its column's largest magnitude.
	markowitzTau = 0.1
	// markowitzCandidates bounds the pivot search to the few lowest-count
	// columns; a full scan only runs when none of them yields a stable
	// pivot.
	markowitzCandidates = 4
	// luDropTol: elimination results below this magnitude are treated as
	// exact cancellation and dropped from the active matrix.
	luDropTol = 1e-12
	// luAbsPivotMin: no usable pivot above this magnitude in any column
	// means the basis is numerically singular.
	luAbsPivotMin = 1e-11
	// etaDropTol: tableau-column entries below this magnitude are noise
	// (the ratio test already ignores anything under 1e-9) and excluded
	// from stored etas.
	etaDropTol = 1e-13
	// etaDriftTol: an eta pivot smaller than this fraction of its
	// column's largest entry marks the representation drift-suspect,
	// forcing a refactorization before the next pivot.
	etaDriftTol = 1e-8
	// etaGrowthLimit caps the eta file at this multiple of the base
	// factorization's nonzeros (plus a 4m allowance) before a
	// refactorization is requested — past that point applying the eta
	// file costs more than refactoring.
	etaGrowthLimit = 4
	// ftGrowthLimit is the Forrest–Tomlin analogue: updates absorb their
	// fill into the factor itself, so the budget is measured fill (spike
	// entries plus row-elimination multipliers) against the base
	// factorization, and it is deliberately tighter than the eta limit —
	// FT fill is paid on *every* subsequent solve, an eta only on replay.
	// This measured-growth trigger, not a fixed pivot cadence, is what
	// paces refactorization on ftFactor (see wantRefactor).
	ftGrowthLimit = 1
	// etaRefactorEvery is the eta file's refactorization cadence in pivots
	// (fights floating-point drift).
	etaRefactorEvery = 512
	// ftRefactorBackstop is the cadence on Forrest–Tomlin kernels, where the
	// measured fill growth decides when refactorizing pays; the cadence
	// survives only as a long numerical-hygiene backstop against roundoff
	// accumulating over very long, low-fill pivot chains.
	ftRefactorBackstop = 2048
)

// heapPush/heapPop are the binary min-heap behind the one integer worklist
// a bitset cannot serve: a Markowitz count bucket, whose column positions
// come and go (stale entries are popped and dropped) across the whole
// refactorization.
func heapPush(h []int32, v int32) []int32 {
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func heapPop(h []int32) (int32, []int32) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r] < h[l] {
			l = r
		}
		if h[i] <= h[l] {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	return top, h
}

func (f *etaFactor) age() int           { return len(f.etas) }
func (f *etaFactor) refactorEvery() int { return etaRefactorEvery }

// wantRefactor requests a refactorization when the representation has
// drifted numerically or the eta file has outgrown its budget.
func (f *etaFactor) wantRefactor() bool {
	return f.drift || f.etaNnz > etaGrowthLimit*f.baseNnz+4*f.m
}

func (f *ftFactor) age() int           { return f.nupd }
func (f *ftFactor) refactorEvery() int { return ftRefactorBackstop }

// wantRefactor is adaptive in the literal sense: the budget tracks the fill
// each pivot actually absorbed into U (spike entries plus elimination
// multipliers) rather than assuming a fixed per-pivot cost, so sparse pivot
// chains run long between refactorizations and dense ones refactor early.
func (f *ftFactor) wantRefactor() bool {
	return f.drift || f.ftNnz > ftGrowthLimit*f.baseNnz+4*f.m
}

// ensureScratch sizes the dense solves' working set. Every dense solve
// stages its input through it (load), so a view (share), which starts
// without scratch, allocates its own on its first one.
func (f *luFactor) ensureScratch() {
	if len(f.xwork) != f.m {
		f.xwork = make([]float64, f.m)
		f.zwork = make([]float64, f.m)
		f.umark = make([]bool, f.m)
	}
	if len(f.lmark) < len(f.lops) {
		f.lmark = make([]bool, len(f.lops))
	}
}

// ensureNzScratch sizes the hyper-sparse solve working set. Everything
// comes back from make all-zero, which establishes the kept-clean
// invariant.
func (f *luFactor) ensureNzScratch() {
	if len(f.sxw) != f.m {
		f.sxw = make([]float64, f.m)
		f.szw = make([]float64, f.m)
		f.rmark = make([]bool, f.m)
	}
	if n := words(len(f.lops)); len(f.opBits) < n {
		f.opBits = make([]uint64, n)
	}
}

func (f *etaFactor) ensureNzScratch() {
	f.luFactor.ensureNzScratch()
	if n := words(f.m); len(f.mbits) != n {
		f.mbits = make([]uint64, n)
	}
	if len(f.ebits) < words(len(f.etas)) {
		f.ebits = make([]uint64, words(cap(f.etas)))
	}
}

// ensureNzScratch also sizes the key and run bitsets for every key and run
// the kernel holds (with room for those the next updates append).
func (f *ftFactor) ensureNzScratch() {
	f.luFactor.ensureNzScratch()
	if len(f.kbits) < words(len(f.ordStep)) {
		f.kbits = make([]uint64, words(cap(f.ordStep)))
	}
	if len(f.rbits) < words(len(f.ftRuns)) {
		f.rbits = make([]uint64, words(cap(f.ftRuns)))
	}
}

// words is the number of uint64 words a bitset over [0, n) takes. The
// hyper-sparse passes keep their worklists in such bitsets: setBit marks an
// index, and a sweep takes the lowest (TrailingZeros64) or highest
// (LeadingZeros64) mark next — the order each triangular pass needs, since
// a pass only ever marks indices beyond the one it is processing — for
// O(n/64) plus the work itself.
func words(n int) int { return (n + 63) >> 6 }

func setBit(bs []uint64, i int32) { bs[i>>6] |= 1 << (uint32(i) & 63) }

func hasBit(bs []uint64, i int32) bool { return bs[i>>6]&(1<<(uint32(i)&63)) != 0 }

// drain appends the set bits of bs to nz, ascending, and clears bs.
func drain(bs []uint64, nz []int32) []int32 {
	for w, word := range bs {
		if word == 0 {
			continue
		}
		bs[w] = 0
		for ; word != 0; word &= word - 1 {
			nz = append(nz, int32(w<<6|bits.TrailingZeros64(word)))
		}
	}
	return nz
}

// ensureFtScratch sizes the Forrest–Tomlin update working set. ftb/ftw
// come back from make all-zero, establishing the kept-clean invariant.
func (f *ftFactor) ensureFtScratch() {
	if len(f.ftb) != f.m {
		f.ftb = make([]float64, f.m)
		f.ftw = make([]float64, f.m)
		f.ftmark = make([]bool, f.m)
	}
}

// ftReset (re)initializes the Forrest–Tomlin bookkeeping for a fresh
// factorization of m steps: logical order equal to step order, no ops, no
// overflow entries, an empty reader index. ucols is left to the caller
// (refactorize builds it from U; reset leaves it empty — the identity has
// no off-diagonals). A borrowed kernel builds it all in fresh arrays.
func (f *ftFactor) ftReset(m int) {
	if f.borrowed {
		f.ftOps, f.ftRuns, f.ord, f.ordStep, f.xrow, f.xs, f.ucols = nil, nil, nil, nil, nil, nil, nil
		f.borrowed = false
	}
	f.ftOps, f.ftRuns = f.ftOps[:0], f.ftRuns[:0]
	f.ftNnz = 0
	f.nupd = 0
	f.stashPtr = nil
	f.xs = f.xs[:0]
	f.rdHead = f.rdHead[:0]
	if len(f.ord) != m {
		f.ord = make([]int32, m)
		f.xrow = make([]xspan, m)
	}
	f.ordStep = f.ordStep[:0]
	for k := 0; k < m; k++ {
		f.ord[k] = int32(k)
		f.ordStep = append(f.ordStep, int32(k))
		f.xrow[k] = xspan{}
	}
	if len(f.ucols) != m {
		f.ucols = make([][]int32, m)
	}
	for k := 0; k < m; k++ {
		f.ucols[k] = f.ucols[k][:0]
	}
	f.ensureFtScratch()
}

// own readies the factorization output arrays for an m-row rewrite and
// reports whether it allocated them fresh: on first use, after a size
// change, or while a clone still views the current ones (`shared`) — the
// clone keeps those, so nothing is ever written through arrays a snapshot
// can see. Otherwise the current arrays are recycled in place. Every reset
// and refactorize starts here, before anything can fail, so a rebuild that
// ends singular or out of time holds nothing a clone views either.
func (f *luFactor) own(m int) (fresh bool) {
	f.m = m
	if !f.shared && len(f.ud) == m && f.ur != nil {
		return false
	}
	f.lops, f.opArena, f.lueArena = nil, nil, nil
	f.ur = make([][]lue, m)
	f.ud = make([]float64, m)
	f.permRow = make([]int32, m)
	f.permPos = make([]int32, m)
	f.posStep = make([]int32, m)
	f.stepOfRow = make([]int32, m)
	f.rowOp = make([]int32, m)
	f.lrPtr = make([]int32, m+1)
	f.lrIdx = nil
	f.lmark = nil
	f.shared = false
	return true
}

// own extends luFactor.own over the arrays an etaFactor clone views as well:
// the U column transpose, the arena under the eta file and its reader index.
func (f *etaFactor) own(m int) {
	if f.luFactor.own(m) {
		f.ucPtr, f.ucIdx = make([]int32, m+1), nil
		f.etas, f.etaArena = nil, nil
		f.etaRows = nil
	}
}

// indexEtas builds the reader index from the eta file when the kernel has
// none.
func (f *etaFactor) indexEtas() {
	if f.etaRows != nil {
		return
	}
	f.etaRows = make([][]int32, f.m)
	for ei := range f.etas {
		f.indexEta(int32(ei))
	}
}

// indexEta records eta ei under every position it reads and the one it
// writes.
func (f *etaFactor) indexEta(ei int32) {
	e := &f.etas[ei]
	f.etaRows[e.r] = append(f.etaRows[e.r], ei)
	for _, en := range e.nz {
		f.etaRows[en.row] = append(f.etaRows[en.row], ei)
	}
}

// clearEtas empties the eta file and its reader index in the arrays own
// readied.
func (f *etaFactor) clearEtas() {
	f.etas, f.etaArena = f.etas[:0], f.etaArena[:0]
	f.etaNnz = 0
	for p := range f.etaRows {
		f.etaRows[p] = f.etaRows[p][:0]
	}
}

// identity installs the identity factorization (the cold-start basis is the
// identity by construction) in the arrays own readied.
func (f *luFactor) identity() {
	f.lops = f.lops[:0]
	f.opArena = f.opArena[:0]
	f.lueArena = f.lueArena[:0]
	for i := range f.lrPtr {
		f.lrPtr[i] = 0
	}
	f.lrIdx = f.lrIdx[:0]
	for k := 0; k < f.m; k++ {
		f.ur[k] = nil
		f.ud[k] = 1
		f.permRow[k] = int32(k)
		f.permPos[k] = int32(k)
		f.posStep[k] = int32(k)
		f.stepOfRow[k] = int32(k)
		f.rowOp[k] = -1
	}
	f.baseNnz = f.m
	f.drift = false
	f.ensureScratch()
}

func (f *etaFactor) reset(m int) {
	f.own(m)
	f.identity()
	for i := range f.ucPtr {
		f.ucPtr[i] = 0
	}
	f.ucIdx = f.ucIdx[:0]
	f.clearEtas()
}

func (f *ftFactor) reset(m int) {
	f.own(m)
	f.identity()
	f.ftReset(m)
}

// ment is an active-matrix entry during factorization, indexed by basis
// position.
type ment struct {
	pos int32
	val float64
}

// rowGet finds the entry of row at position pos (rows are short slices, so
// a linear scan beats any index structure).
func rowGet(row []ment, pos int32) (float64, bool) {
	for _, e := range row {
		if e.pos == pos {
			return e.val, true
		}
	}
	return 0, false
}

// factorize factors the basis columns from scratch, rebuilding every
// factorization output slice in the arrays own readied; the working set
// comes from the reusable Markowitz scratch. peel turns on staircase
// singleton peeling: it changes the pivot order, so only the large-model
// kernel asks for it. The deadline is checked every 64 elimination steps so
// a large factorization respects Options.TimeBudget.
func (f *luFactor) factorize(std *standard, basis []int, deadline time.Time, peel bool) refactorOutcome {
	m := f.m
	f.ensureScratch()
	if f.mkz == nil {
		f.mkz = &markowitzScratch{}
	}
	s := f.mkz
	s.ensure(m)

	// Active matrix: rows by original constraint row, a per-position list
	// of rows that (may) hold a nonzero there, and exact per-row/column
	// nonzero counts feeding the Markowitz cost via the count buckets.
	rowNz := s.rowNz
	colRows := s.colRows
	colCount := s.colCount
	rowCount := s.rowCount
	for p, j := range basis {
		// Pre-size the column list (its exact initial count is the basis
		// column's length) with headroom for elimination fill, so the build
		// and the fill appends stay off the allocator on the first call and
		// reuse retained capacity afterwards.
		if c := len(std.cols[j]); cap(colRows[p]) < c {
			colRows[p] = make([]int32, 0, c+c/2+8)
		}
		col := std.cols[j]
		for _, e := range col {
			rowNz[e.row] = append(rowNz[e.row], ment{pos: int32(p), val: e.val})
			colRows[p] = append(colRows[p], int32(e.row))
		}
	}
	for p := range basis {
		s.setColCount(int32(p), len(colRows[p]))
	}
	for i := range rowNz {
		rowCount[i] = len(rowNz[i])
		if peel && rowCount[i] == 1 {
			s.rowQ = append(s.rowQ, int32(i))
		}
	}

	rowDone := s.rowDone
	colDone := s.colDone
	// Rewriting the outputs scribbles over the live representation as the
	// elimination proceeds, which is fine: every failure exit (timeout/
	// singular) leads the solver to reset() or abandon the factorization,
	// never to keep solving with it. The per-step L multipliers are carved
	// out of one append-grown arena — slices carved before a growth keep the
	// old backing array, which is never written again, so publishing stays
	// safe.
	lops := f.lops[:0]
	opArena := f.opArena[:0]
	if lops == nil { // own dropped the arenas
		lops = make([]lop, 0, m/4+1)
		opArena = make([]entry, 0, 4*m)
	}
	ur, ud := f.ur, f.ud // ur is built position-indexed, remapped at the end
	permRow, permPos := f.permRow, f.permPos
	urPos := s.urPos
	uArena := s.uArena[:0]

	// Stamped row-visited marks dedupe colRows (a row is re-appended when
	// a dropped entry fills back in).
	seen := s.seen
	stamp := 0

	ws := f.xwork // dense row-combination workspace, by position
	inWs := s.inWs

	for k := 0; k < m; k++ {
		if k&63 == 0 && expired(deadline) {
			return refactorTimeout
		}

		// Staircase peeling: singleton pivots need no Markowitz search.
		// A singleton column's pivot generates no multipliers at all (no
		// other live row holds the column); a singleton row's pivot
		// eliminates its column from the other rows *exactly* — the pivot
		// row has nothing else to add, so there is no fill and the active
		// matrix only shrinks. On the staircase bases this solver sees,
		// peeling erases the bulk of the matrix before any candidate
		// scan runs. Row-singleton pivots skip the relative-stability
		// threshold (only the absolute floor applies): the elimination
		// itself is exact, so an out-of-threshold multiplier costs solve
		// accuracy far less than it would in a fill-producing pivot.
		pr, pc, piv := int32(-1), int32(-1), 0.0
		bestCost := math.MaxInt64 - 1
		if peel {
			for len(s.colQ) > 0 {
				j := s.colQ[len(s.colQ)-1]
				s.colQ = s.colQ[:len(s.colQ)-1]
				if s.colDone[j] || s.colCount[j] != 1 {
					continue
				}
				rr := int32(-1)
				v := 0.0
				for _, r := range colRows[j] {
					if rowDone[r] {
						continue
					}
					if vv, ok := rowGet(rowNz[r], j); ok {
						rr, v = r, vv
						break
					}
				}
				if rr < 0 || math.Abs(v) < luAbsPivotMin {
					continue // stale or numerically unusable: leave to the search
				}
				pr, pc, piv = rr, j, v
				break
			}
			if pr < 0 {
				for len(s.rowQ) > 0 {
					r := s.rowQ[len(s.rowQ)-1]
					s.rowQ = s.rowQ[:len(s.rowQ)-1]
					if rowDone[r] || rowCount[r] != 1 {
						continue
					}
					e := rowNz[r][0]
					if math.Abs(e.val) < luAbsPivotMin {
						continue
					}
					pr, pc, piv = r, e.pos, e.val
					break
				}
			}
		}
		if pr < 0 {
			scanCol := func(j int32) bool {
				// Two passes over the column's live entries: max magnitude
				// for the stability threshold, then cost minimization.
				stamp++
				colMax := 0.0
				for _, r := range colRows[j] {
					if rowDone[r] || seen[r] == stamp {
						continue
					}
					seen[r] = stamp
					if v, ok := rowGet(rowNz[r], j); ok {
						if a := math.Abs(v); a > colMax {
							colMax = a
						}
					}
				}
				if colMax < luAbsPivotMin {
					return false
				}
				thresh := markowitzTau * colMax
				found := false
				stamp++
				for _, r := range colRows[j] {
					if rowDone[r] || seen[r] == stamp {
						continue
					}
					seen[r] = stamp
					v, ok := rowGet(rowNz[r], j)
					if !ok || math.Abs(v) < thresh || math.Abs(v) < luAbsPivotMin {
						continue
					}
					cost := (rowCount[r] - 1) * (colCount[j] - 1)
					if cost < bestCost || (cost == bestCost && (j < pc || (j == pc && r < pr))) {
						bestCost, pr, pc, piv = cost, r, j, v
						found = true
					}
				}
				return found
			}

			// The candidate buckets yield the same lowest-(count, position)
			// columns the original full scan selected, in the same order, so
			// the pivot sequence — and with it every downstream float — is
			// unchanged.
			var cand [markowitzCandidates]int32
			nc, ok := s.candidates(&cand)
			if !ok {
				return refactorSingular // a live column no fill can ever reach
			}
			for i := 0; i < nc; i++ {
				scanCol(cand[i])
				if bestCost == 0 {
					break // a singleton row or column cannot be beaten
				}
			}
			if pr < 0 {
				// None of the low-count candidates had a stable pivot; fall
				// back to scanning every active column before declaring the
				// basis singular.
				for j := 0; j < m && bestCost > 0; j++ {
					if !colDone[j] {
						scanCol(int32(j))
					}
				}
				if pr < 0 {
					return refactorSingular
				}
			}
		}

		// Eliminate pivot (pr, pc).
		permRow[k], permPos[k] = pr, pc
		rowDone[pr] = true
		s.retireCol(pc)
		pivRow := rowNz[pr]
		uStart := len(uArena)
		for _, e := range pivRow {
			if !colDone[e.pos] {
				s.setColCount(e.pos, colCount[e.pos]-1)
			}
			if e.pos != pc {
				uArena = append(uArena, e)
			}
		}
		urPos[k] = uArena[uStart:]
		ud[k] = piv

		opStart := len(opArena)
		stamp++
		for _, r32 := range colRows[pc] {
			r := int(r32)
			if rowDone[r] || seen[r] == stamp {
				continue
			}
			seen[r] = stamp
			arpc, ok := rowGet(rowNz[r], pc)
			if !ok {
				continue
			}
			mult := arpc / piv
			opArena = append(opArena, entry{row: r, val: mult})
			// Row combination: row r ← row r − mult·(pivot row), with the
			// pivot column eliminated exactly. Scatter, saxpy, gather.
			old := rowNz[r]
			posList := s.posList[:0]
			for _, e := range old {
				if e.pos == pc {
					continue
				}
				ws[e.pos] = e.val
				inWs[e.pos] = true
				posList = append(posList, e.pos)
			}
			for _, e := range urPos[k] {
				if inWs[e.pos] {
					ws[e.pos] -= mult * e.val
				} else {
					ws[e.pos] = -mult * e.val
					inWs[e.pos] = true
					posList = append(posList, e.pos)
					colRows[e.pos] = append(colRows[e.pos], r32)
					s.setColCount(e.pos, colCount[e.pos]+1)
				}
			}
			newRow := old[:0]
			for _, pos := range posList {
				v := ws[pos]
				inWs[pos] = false
				if math.Abs(v) <= luDropTol {
					if !colDone[pos] {
						// Cancelled to (numerical) zero.
						s.setColCount(pos, colCount[pos]-1)
					}
					continue
				}
				newRow = append(newRow, ment{pos: pos, val: v})
			}
			s.posList = posList[:0]
			rowNz[r] = newRow
			rowCount[r] = len(newRow)
			if peel && len(newRow) == 1 {
				s.rowQ = append(s.rowQ, r32)
			}
		}
		if len(opArena) > opStart {
			lops = append(lops, lop{prow: pr, nz: opArena[opStart:]})
		}
		rowNz[pr] = rowNz[pr][:0]
	}

	// Remap U entries from basis positions to elimination steps: every
	// off-diagonal entry belongs to a column eliminated later, so FTRAN's
	// descending back-substitution and BTRAN's ascending transposed solve
	// become direct walks.
	posOfPos := f.posStep
	for k, p := range permPos {
		posOfPos[p] = int32(k)
	}
	lueA := f.lueArena[:0]
	if lueA == nil {
		lueA = make([]lue, 0, len(uArena))
	}
	nnz := m
	for k, src := range urPos {
		uStart := len(lueA)
		for _, e := range src {
			lueA = append(lueA, lue{k: posOfPos[e.pos], val: e.val})
		}
		ur[k] = lueA[uStart:len(lueA):len(lueA)]
		nnz += len(src)
	}
	f.lueArena = lueA
	for _, op := range lops {
		nnz += len(op.nz)
	}

	// The row transpose for the sparsity-adaptive BTRAN (own covers it like
	// the factorization it mirrors; clones share both); the fill cursor is
	// pure scratch.
	lrPtr := f.lrPtr
	for i := range lrPtr {
		lrPtr[i] = 0
	}
	for li := range lops {
		for _, nz := range lops[li].nz {
			lrPtr[nz.row+1]++
		}
	}
	for r := 0; r < m; r++ {
		lrPtr[r+1] += lrPtr[r]
	}
	lrIdx := f.lrIdx
	if need := int(lrPtr[m]); cap(lrIdx) < need {
		lrIdx = make([]int32, need)
	} else {
		lrIdx = lrIdx[:need]
	}
	lrFill := s.fill[:0]
	lrFill = append(lrFill, lrPtr[:m]...)
	for li := range lops {
		for _, nz := range lops[li].nz {
			lrIdx[lrFill[nz.row]] = int32(li)
			lrFill[nz.row]++
		}
	}

	for k, r := range permRow {
		f.stepOfRow[r] = int32(k)
	}
	for r := range f.rowOp {
		f.rowOp[r] = -1
	}
	for li := range lops {
		f.rowOp[lops[li].prow] = int32(li)
	}

	f.lops = lops
	f.opArena = opArena
	f.lrIdx = lrIdx
	s.uArena = uArena[:0]
	f.baseNnz = nnz
	f.drift = false
	// The workspace doubled as the scatter buffer; leave it zeroed.
	for i := range ws {
		ws[i] = 0
	}
	return refactorOK
}

// refactorize rebuilds the factorization, the column transpose of U for the
// sparsity-adaptive back-substitution, and clears the eta file.
func (f *etaFactor) refactorize(std *standard, basis []int, deadline time.Time) refactorOutcome {
	f.own(std.m)
	if out := f.factorize(std, basis, deadline, false); out != refactorOK {
		return out
	}
	m := f.m
	ucPtr := f.ucPtr
	for i := range ucPtr {
		ucPtr[i] = 0
	}
	for _, u := range f.ur {
		for _, e := range u {
			ucPtr[e.k+1]++
		}
	}
	for k := 0; k < m; k++ {
		ucPtr[k+1] += ucPtr[k]
	}
	ucIdx := f.ucIdx
	if need := int(ucPtr[m]); cap(ucIdx) < need {
		ucIdx = make([]int32, need)
	} else {
		ucIdx = ucIdx[:need]
	}
	ucFill := f.mkz.fill
	copy(ucFill, ucPtr[:m])
	for k, u := range f.ur {
		for _, e := range u {
			ucIdx[ucFill[e.k]] = int32(k)
			ucFill[e.k]++
		}
	}
	f.ucIdx = ucIdx
	f.clearEtas()
	return refactorOK
}

// refactorize rebuilds the factorization (peeled) and the Forrest–Tomlin
// state on top of it; ucols, the exact dynamic transpose the updates
// maintain, is rebuilt from U.
func (f *ftFactor) refactorize(std *standard, basis []int, deadline time.Time) refactorOutcome {
	f.own(std.m)
	if out := f.factorize(std, basis, deadline, true); out != refactorOK {
		return out
	}
	f.ftReset(f.m)
	// Count column occupancy first (ftw is all-zero between calls and free
	// here, so it doubles as the counting scratch), then pre-size each list
	// with a little headroom for later spike rebuilds; the build itself then
	// stays off the allocator, and retained capacity covers subsequent
	// refactorizations.
	cnt := f.ftw
	for k := range f.ur {
		for _, e := range f.ur[k] {
			cnt[e.k]++
		}
	}
	for k := 0; k < f.m; k++ {
		c := int(cnt[k])
		cnt[k] = 0
		if c > 0 && cap(f.ucols[k]) < c {
			f.ucols[k] = make([]int32, 0, c+8)
		}
	}
	for k := range f.ur {
		for _, e := range f.ur[k] {
			f.ucols[e.k] = append(f.ucols[e.k], int32(k))
		}
	}
	return refactorOK
}

// lPass applies L⁻¹ to x (row space): the elimination ops in order.
func (f *luFactor) lPass(x []float64) {
	for li := range f.lops {
		op := &f.lops[li]
		pv := x[op.prow]
		if pv != 0 {
			for _, nz := range op.nz {
				x[nz.row] -= nz.val * pv
			}
		}
	}
}

// ltPass finishes a BTRAN: zwork (step space) is permuted to row space in
// out, then the transposed elimination ops run in reverse.
//
// The pass is rhs-sparsity-adaptive: an op only changes out[op.prow] when
// one of the rows it reads is nonzero, so ops are marked through the reader
// lists in lrPtr/lrIdx as nonzeros appear and unmarked ops are skipped. A
// skipped op leaves its row's value bit-exactly as the dense pass would
// (subtracting only exact zeros); marked ops run the original loop in the
// original order, so the float stream is unchanged.
func (f *luFactor) ltPass(out []float64) {
	z := f.zwork
	mk := f.lmark
	for k := 0; k < f.m; k++ {
		v := z[k]
		r := f.permRow[k]
		out[r] = v
		if v != 0 {
			for _, li := range f.lrIdx[f.lrPtr[r]:f.lrPtr[r+1]] {
				mk[li] = true
			}
		}
	}
	for li := len(f.lops) - 1; li >= 0; li-- {
		op := &f.lops[li]
		if !mk[li] {
			continue
		}
		s := out[op.prow]
		for _, nz := range op.nz {
			s -= nz.val * out[nz.row]
		}
		out[op.prow] = s
		if s != 0 {
			pr := int(op.prow)
			for _, lj := range f.lrIdx[f.lrPtr[pr]:f.lrPtr[pr+1]] {
				mk[lj] = true
			}
		}
	}
	for li := range mk {
		mk[li] = false
	}
}

// load stages a copy of a dense solve's input x in xwork, which the solve
// consumes.
func (f *luFactor) load(x []float64) []float64 {
	f.ensureScratch()
	copy(f.xwork, x)
	return f.xwork
}

// solveForward is the eta kernel's FTRAN core: x (row space, consumed)
// through L⁻¹, U back-substitution, permutation to position space, then the
// eta file.
//
// The U back-substitution is rhs-sparsity-adaptive: step k's result can be
// nonzero only when its own rhs entry is, or a later step it references
// produced a nonzero (tracked through the transposed structure in
// ucPtr/ucIdx). Skipped steps are exact zeros — the arithmetic for computed
// steps runs the original inner loop in the original order, so the float
// stream is unchanged. On simplex workloads the rhs is an entering column
// with a handful of nonzeros and the reachable set is tiny; this is what
// turns each pivot from O(m + nnz(U)) into O(m) flag work plus O(reached).
func (f *etaFactor) solveForward(x, out []float64) {
	f.lPass(x)
	z := f.zwork
	mk := f.umark
	for k := f.m - 1; k >= 0; k-- {
		v := x[f.permRow[k]]
		if !mk[k] && v == 0 {
			z[k] = 0
			continue
		}
		mk[k] = false
		for _, e := range f.ur[k] {
			v -= e.val * z[e.k]
		}
		t := v / f.ud[k]
		z[k] = t
		if t != 0 {
			for _, c := range f.ucIdx[f.ucPtr[k]:f.ucPtr[k+1]] {
				mk[c] = true
			}
		}
	}
	for k := 0; k < f.m; k++ {
		out[f.permPos[k]] = z[k]
	}
	// B = B₀E₁…E_k ⇒ B⁻¹ = E_k⁻¹…E₁⁻¹B₀⁻¹: etas apply last, in order.
	for ei := range f.etas {
		e := &f.etas[ei]
		t := out[e.r] / e.piv
		out[e.r] = t
		if t != 0 {
			for _, nz := range e.nz {
				out[nz.row] -= nz.val * t
			}
		}
	}
}

// solveBackward is the eta kernel's BTRAN core: p (position space,
// consumed) through the transposed eta file in reverse, the Uᵀ forward
// solve, then ltPass.
func (f *etaFactor) solveBackward(p, out []float64) {
	for ei := len(f.etas) - 1; ei >= 0; ei-- {
		e := &f.etas[ei]
		s := p[e.r]
		for _, nz := range e.nz {
			s -= nz.val * p[nz.row]
		}
		p[e.r] = s / e.piv
	}
	z := f.zwork
	for k := 0; k < f.m; k++ {
		z[k] = p[f.permPos[k]]
	}
	for k := 0; k < f.m; k++ {
		t := z[k] / f.ud[k]
		z[k] = t
		if t != 0 {
			for _, e := range f.ur[k] {
				z[e.k] -= e.val * t
			}
		}
	}
	f.ltPass(out)
}

func (f *etaFactor) ftranDense(x, out []float64) { f.solveForward(f.load(x), out) }
func (f *etaFactor) btran(x, out []float64)      { f.solveBackward(f.load(x), out) }

// updateNz appends the pivot's eta vector: w's off-pivot entries above
// etaDropTol in wnz's order (nil: scan w; the simplex's lists are ascending,
// so both store the same eta), and indexes it.
func (f *etaFactor) updateNz(r int, w []float64, wnz []int32) {
	piv := w[r]
	maxAbs := math.Abs(piv)
	start := len(f.etaArena)
	n := len(wnz)
	if wnz == nil {
		n = len(w)
	}
	for k := 0; k < n; k++ {
		i := k
		if wnz != nil {
			i = int(wnz[k])
		}
		if i == r {
			continue
		}
		v := w[i]
		a := math.Abs(v)
		if a <= etaDropTol {
			continue
		}
		if a > maxAbs {
			maxAbs = a
		}
		f.etaArena = append(f.etaArena, entry{row: i, val: v})
	}
	nz := f.etaArena[start:len(f.etaArena):len(f.etaArena)]
	f.indexEtas()
	f.etas = append(f.etas, eta{r: int32(r), piv: piv, nz: nz})
	f.indexEta(int32(len(f.etas) - 1))
	f.etaNnz += len(nz) + 1
	if math.Abs(piv) < etaDriftTol*maxAbs {
		f.drift = true // ill-conditioned update: refactor before next pivot
	}
}

// ftranColNz is the eta kernel's hyper-sparse FTRAN (the nonzero-list
// contract is factor's). The stages mirror solveForward: the L pass over
// the reachable ops (lPassNz); the U back-substitution over the reachable
// steps, a step bitset swept descending (a step's dependents through
// ucPtr/ucIdx are earlier steps, so they join below the sweep); the
// permutation to position space; the eta file in order with solveForward's
// zero skip. Each stage runs solveForward's arithmetic in its order on
// every entry it visits and leaves only zeros unvisited, so the nonzeros
// are solveForward's to the bit. The list is the position bitset drained,
// so it comes back ascending.
func (f *etaFactor) ftranColNz(col []entry, out []float64, prev []int32) []int32 {
	f.ensureNzScratch()
	for _, p := range prev {
		out[p] = 0
	}
	x := f.sxw
	xt := f.lPassNz(col)

	z, sb := f.szw, f.mbits
	hi := -1
	for _, r := range xt {
		if x[r] != 0 {
			k := f.stepOfRow[r]
			setBit(sb, k)
			hi = max(hi, int(k>>6))
		}
	}
	zt := f.lstB[:0]
	for w := hi; w >= 0; w-- {
		for sb[w] != 0 {
			b := 63 - bits.LeadingZeros64(sb[w])
			sb[w] &^= 1 << b
			k := int32(w<<6 | b)
			v := x[f.permRow[k]]
			for _, e := range f.ur[k] {
				v -= e.val * z[e.k]
			}
			t := v / f.ud[k]
			z[k] = t
			zt = append(zt, k)
			if t != 0 {
				for _, c := range f.ucIdx[f.ucPtr[k]:f.ucPtr[k+1]] {
					setBit(sb, c)
				}
			}
		}
	}
	for _, r := range xt {
		x[r] = 0
	}

	for _, k := range zt {
		p := f.permPos[k]
		out[p] = z[k]
		z[k] = 0
		setBit(sb, p)
	}
	for ei := range f.etas {
		e := &f.etas[ei]
		v := out[e.r]
		if v == 0 {
			continue
		}
		t := v / e.piv
		out[e.r] = t
		if t != 0 {
			for _, en := range e.nz {
				o := out[en.row]
				if o == 0 {
					setBit(sb, int32(en.row)) // every nonzero is marked already
				}
				out[en.row] = o - en.val*t
			}
		}
	}
	f.lstA, f.lstB = xt[:0], zt[:0]
	return drain(sb, prev[:0])
}

// btranUnitNz is the eta kernel's hyper-sparse BTRAN of a unit vector (the
// nonzero-list contract is factor's), mirroring solveBackward stage by
// stage. The transposed eta file runs newest first over only the etas that
// can see a nonzero: those etaRows lists under a position holding one,
// marked when the position first turns nonzero (an eta above the current
// one has already run, exactly as in the dense pass). The Uᵀ forward solve
// sweeps a step bitset ascending (scatter targets are later steps), and
// btranLTranspose finishes. As in ftranColNz, the nonzeros are
// solveBackward's to the bit, and the row list comes back ascending.
func (f *etaFactor) btranUnitNz(r int, out []float64, prev []int32) []int32 {
	f.ensureNzScratch()
	f.indexEtas()
	for _, i := range prev {
		out[i] = 0
	}
	// p is position space (sxw); pb marks the positions touched (listed in
	// pt) and eb the etas still to run.
	p, pb, eb := f.sxw, f.mbits, f.ebits
	markReaders := func(q, below int32) {
		for _, ej := range f.etaRows[q] {
			if ej >= below {
				break
			}
			setBit(eb, ej)
		}
	}
	p[r] = 1
	setBit(pb, int32(r))
	pt := append(f.lstA[:0], int32(r))
	markReaders(int32(r), int32(len(f.etas)))
	for w := words(len(f.etas)) - 1; w >= 0; w-- {
		for eb[w] != 0 {
			b := 63 - bits.LeadingZeros64(eb[w])
			eb[w] &^= 1 << b
			ei := int32(w<<6 | b)
			e := &f.etas[ei]
			old := p[e.r]
			s := old
			for _, en := range e.nz {
				s -= en.val * p[en.row]
			}
			v := s / e.piv
			p[e.r] = v
			if pb[e.r>>6]&(1<<(e.r&63)) == 0 {
				setBit(pb, e.r)
				pt = append(pt, e.r)
			}
			if old == 0 && v != 0 {
				markReaders(e.r, ei)
			}
		}
	}

	// To step space: pb, cleared, becomes the Uᵀ worklist.
	for _, q := range pt {
		pb[q>>6] = 0
	}
	z := f.szw
	lo := len(pb)
	for _, q := range pt {
		v := p[q]
		p[q] = 0
		if v != 0 {
			k := f.posStep[q]
			z[k] = v
			setBit(pb, k)
			lo = min(lo, int(k>>6))
		}
	}
	zt := f.lstB[:0]
	for w := lo; w < len(pb); w++ {
		for pb[w] != 0 {
			k := int32(w<<6 | bits.TrailingZeros64(pb[w]))
			pb[w] &= pb[w] - 1
			t := z[k] / f.ud[k]
			z[k] = t
			zt = append(zt, k)
			if t != 0 {
				for _, e := range f.ur[k] {
					setBit(pb, e.k)
					z[e.k] -= e.val * t
				}
			}
		}
	}
	nz := f.btranLTranspose(z, zt, out, prev[:0])
	for _, i := range nz {
		setBit(pb, i)
	}
	f.lstA, f.lstB = pt[:0], zt[:0]
	return drain(pb, nz[:0])
}

// solveForward is the Forrest–Tomlin kernel's dense FTRAN core, the
// reference the hyper-sparse ftranColNz is tested against: x (row space,
// consumed) through L⁻¹ and the row ops, then U back-substitution in
// logical order (marks as in etaFactor.solveForward, through ucols).
func (f *ftFactor) solveForward(x, out []float64) {
	f.lPass(x)
	// FT row ops transform the step-space rhs in application order; since
	// z₀[k] ≡ x[permRow[k]] they run on x through the gather.
	for i := range f.ftOps {
		op := &f.ftOps[i]
		pv := x[f.permRow[op.j]]
		if pv != 0 {
			x[f.permRow[op.s]] -= op.val * pv
		}
	}
	// Back-substitution walks the *logical* order descending, key by key;
	// every entry's column is logically later, so its z is already final.
	z := f.zwork
	mk := f.umark
	for key := len(f.ordStep) - 1; key >= 0; key-- {
		k := f.ordStep[key]
		if f.ord[k] != int32(key) {
			continue // stale: step k has moved on to a later key
		}
		v := x[f.permRow[k]]
		if !mk[k] && v == 0 {
			z[k] = 0
			continue
		}
		mk[k] = false
		for _, e := range f.ur[k] {
			v -= e.val * z[e.k]
		}
		xr := f.overflow(k)
		for i := len(xr) - 1; i >= 0; i-- {
			v -= xr[i].val * z[xr[i].k]
		}
		t := v / f.ud[k]
		z[k] = t
		if t != 0 {
			for _, c := range f.ucols[k] {
				mk[c] = true
			}
		}
	}
	for k := 0; k < f.m; k++ {
		out[f.permPos[k]] = z[k]
	}
}

// solveBackward is the dense BTRAN core: the Uᵀ forward solve walks the
// logical order ascending (scatter targets are logically later), the
// transposed FT ops apply in reverse append order, then ltPass.
func (f *ftFactor) solveBackward(p, out []float64) {
	z := f.zwork
	for k := 0; k < f.m; k++ {
		z[k] = p[f.permPos[k]]
	}
	for key, k := range f.ordStep {
		if f.ord[k] != int32(key) {
			continue
		}
		t := z[k] / f.ud[k]
		z[k] = t
		if t != 0 {
			for _, e := range f.ur[k] {
				z[e.k] -= e.val * t
			}
			for _, e := range f.overflow(k) {
				z[e.k] -= e.val * t
			}
		}
	}
	for i := len(f.ftOps) - 1; i >= 0; i-- {
		op := &f.ftOps[i]
		if v := z[op.s]; v != 0 {
			z[op.j] -= op.val * v
		}
	}
	f.ltPass(out)
}

func (f *ftFactor) ftranDense(x, out []float64) { f.solveForward(f.load(x), out) }
func (f *ftFactor) btran(x, out []float64)      { f.solveBackward(f.load(x), out) }

// overflow is row k's update-added U entries, oldest first.
func (f *ftFactor) overflow(k int32) []lue {
	sp := f.xrow[k]
	return f.xs[sp.off : sp.off+sp.n]
}

// xpush appends e to row k's overflow entries. A full span moves to the
// slab's end with room to double.
func (f *ftFactor) xpush(k int32, e lue) {
	sp := &f.xrow[k]
	if sp.n == sp.cap {
		off := int32(len(f.xs))
		f.xs = append(f.xs, f.xs[sp.off:sp.off+sp.n]...)
		sp.cap = max(4, 2*sp.n)
		f.xs = append(f.xs, make([]lue, sp.cap-sp.n)...)
		sp.off = off
	}
	f.xs[sp.off+sp.n] = e
	sp.n++
}

// ftDelete removes row k's U entry in column s, whichever store holds it
// (static row or overflow span; the span keeps its order). A miss is a
// no-op: exact-cancellation drops can leave a column list pointing at an
// entry that never existed.
func (f *ftFactor) ftDelete(k, s int32) {
	row := f.ur[k]
	for i := range row {
		if row[i].k == s {
			row[i] = row[len(row)-1]
			f.ur[k] = row[:len(row)-1]
			return
		}
	}
	xr := f.overflow(k)
	for i := range xr {
		if xr[i].k == s {
			copy(xr[i:], xr[i+1:])
			f.xrow[k].n--
			return
		}
	}
}

// ucolDrop removes row k from column j's row list (exact maintenance: the
// hyper-sparse worklists rely on ucols never naming a row whose logical
// order is later than the column's, which a stale entry for a moved row
// would violate).
func (f *ftFactor) ucolDrop(j, k int32) {
	l := f.ucols[j]
	for i := range l {
		if l[i] == k {
			l[i] = l[len(l)-1]
			f.ucols[j] = l[:len(l)-1]
			return
		}
	}
}

// updateNz absorbs one pivot into the factorization in place (Forrest–
// Tomlin): the basis column at position r has been replaced by a column
// with tableau form w = B⁻¹a (nonzero positions wnz; nil means scan w).
//
// With the representation B⁻¹ = P ∘ U⁻¹ ∘ F (F = the appended ftOps after
// the row gather and L⁻¹ pass), replacing column r of B turns U's column
// at step s = posStep[r] into the spike v = F(a) = U·w̃, where w̃ is w
// gathered to step space — computed from w directly so a clone can absorb
// a pivot without having run the FTRAN itself. Step s then moves to the
// end of the logical order: every spike entry (k,s) becomes upper
// triangular for free, while the old row-s entries fall below the
// diagonal and are eliminated against the rows owning their columns in
// ascending logical order. Each elimination emits one ftOp (F_new = E∘F);
// fill lands either at a later column of the working row (handled when
// swept) or at column s, where it accumulates into the new diagonal.
// Row s ends a singleton; no other row or column of U moves. The update's
// ops form one run (ftRuns): they all write step s and none reads it.
func (f *ftFactor) updateNz(r int, w []float64, wnz []int32) {
	f.detach()
	f.ensureFtScratch()
	f.ensureNzScratch()
	s := f.posStep[r]

	mark := f.ftmark
	cand := f.ftlist[:0]
	vals := f.ftvals[:0]
	ns := 0
	vdiag, maxAbs := 0.0, 0.0
	if f.stashPtr != nil && len(w) > 0 && &w[0] == f.stashPtr {
		// The FTRAN that produced w already computed F(a) on the way to
		// the U back-substitution and stashed it — that IS the spike.
		spikeK := cand
		for i, k := range f.stashK {
			v := f.stashV[i]
			if k == s {
				vdiag = v
				continue
			}
			if a := math.Abs(v); a > etaDropTol {
				if a > maxAbs {
					maxAbs = a
				}
				spikeK = append(spikeK, k)
				vals = append(vals, v)
			}
		}
		cand = spikeK
		ns = len(cand)
	} else {
		// Spike v = U·w̃: gather w, then evaluate the rows that can see a
		// nonzero — those whose own rhs entry is set or that hold a U entry
		// in a nonzero column (ucols is exact, so this set is complete).
		ftb := f.ftb
		addCand := func(p int) {
			v := w[p]
			if v == 0 {
				return
			}
			k := f.posStep[p]
			ftb[k] = v
			if !mark[k] {
				mark[k] = true
				cand = append(cand, k)
			}
			for _, kk := range f.ucols[k] {
				if !mark[kk] {
					mark[kk] = true
					cand = append(cand, kk)
				}
			}
		}
		if wnz != nil {
			for _, p := range wnz {
				addCand(int(p))
			}
		} else {
			for p := 0; p < f.m; p++ {
				addCand(p)
			}
		}
		spikeK := cand
		for _, k := range cand {
			mark[k] = false
			v := f.ud[k] * ftb[k]
			for _, e := range f.ur[k] {
				v += e.val * ftb[e.k]
			}
			xr := f.overflow(k)
			for i := len(xr) - 1; i >= 0; i-- {
				v += xr[i].val * ftb[xr[i].k]
			}
			if k == s {
				vdiag = v
				continue
			}
			if a := math.Abs(v); a > etaDropTol {
				if a > maxAbs {
					maxAbs = a
				}
				spikeK[ns] = k
				vals = append(vals, v)
				ns++
			}
		}
		if wnz != nil {
			for _, p := range wnz {
				ftb[f.posStep[p]] = 0
			}
		} else {
			for p := 0; p < f.m; p++ {
				if w[p] != 0 {
					ftb[f.posStep[p]] = 0
				}
			}
		}
	}
	spikeK := cand[:ns]
	if a := math.Abs(vdiag); a > maxAbs {
		maxAbs = a
	}
	f.stashPtr = nil // the factor is about to change; the stash is spent

	// Drop the old column s from its rows, and capture-and-remove the old
	// row s: its entries seed the row-spike elimination worklist (the key
	// bitset, so ordered by the columns' logical order), and their column
	// lists drop row s eagerly so ucols stays exact once s moves to the end.
	for _, k := range f.ucols[s] {
		f.ftDelete(k, s)
	}
	f.ucols[s] = f.ucols[s][:0]
	ftw, kb := f.ftw, f.kbits
	lo := len(kb)
	for _, row := range [2][]lue{f.ur[s], f.overflow(s)} {
		for _, e := range row {
			ftw[e.k] = e.val
			setBit(kb, f.ord[e.k])
			lo = min(lo, int(f.ord[e.k]>>6))
			f.ucolDrop(e.k, s)
		}
	}
	f.ur[s] = f.ur[s][:0]
	f.xrow[s].n = 0

	// Insert the spike column as overflow entries and rebuild ucols[s].
	for i, k := range spikeK {
		f.xpush(k, lue{k: s, val: vals[i]})
		f.ucols[s] = append(f.ucols[s], k)
	}

	// Move step s to the end of the logical order: the next key.
	f.ord[s] = int32(len(f.ordStep))
	f.ordStep = append(f.ordStep, s)

	// Eliminate the row spike in ascending logical order, one ftOp per
	// surviving column; every column the elimination fills is logically
	// later than the row being eliminated, so it joins the bitset above the
	// sweep. Entries at column s (the spike, inserted above) accumulate
	// into the new diagonal.
	d := vdiag
	opStart := len(f.ftOps)
	fill := func(e lue, mult float64) {
		switch key := f.ord[e.k]; {
		case e.k == s:
			d -= mult * e.val
		case hasBit(kb, key):
			ftw[e.k] -= mult * e.val
		default:
			setBit(kb, key)
			ftw[e.k] = -mult * e.val
		}
	}
	for w := lo; w < len(kb); w++ {
		for kb[w] != 0 {
			j := f.ordStep[w<<6|bits.TrailingZeros64(kb[w])]
			kb[w] &= kb[w] - 1
			rv := ftw[j]
			ftw[j] = 0
			if math.Abs(rv) <= luDropTol {
				continue
			}
			mult := rv / f.ud[j]
			f.ftOps = append(f.ftOps, ftOp{s: s, j: j, val: mult})
			for _, e := range f.ur[j] {
				fill(e, mult)
			}
			xr := f.overflow(j)
			for i := len(xr) - 1; i >= 0; i-- {
				fill(xr[i], mult)
			}
		}
	}
	if len(f.ftOps) > opStart {
		f.ftRuns = append(f.ftRuns, int32(opStart))
	}

	if a := math.Abs(d); a < luAbsPivotMin || a < etaDriftTol*maxAbs {
		f.drift = true // ill-conditioned update: refactor before next pivot
		if d == 0 {
			d = luAbsPivotMin // keep solves finite until the forced refactorization
		}
	}
	f.ud[s] = d
	f.nupd++
	f.ftNnz += ns + (len(f.ftOps) - opStart)
	f.ftlist = cand[:0]
	f.ftvals = vals[:0]
}

// run is update run i's ops: all target the same step s, none reads it.
func (f *ftFactor) run(i int) []ftOp {
	end := len(f.ftOps)
	if i+1 < len(f.ftRuns) {
		end = int(f.ftRuns[i+1])
	}
	return f.ftOps[f.ftRuns[i]:end]
}

// indexRuns brings the step → runs reader index up to date, building it
// whole when the kernel has none (a clone, or the first FTRAN since a
// refactorization).
func (f *ftFactor) indexRuns() {
	if len(f.rdHead) != f.m {
		f.rdHead = append(f.rdHead[:0], make([]int32, f.m)...)
		for k := range f.rdHead {
			f.rdHead[k] = -1
		}
		f.rdLink, f.rdN = f.rdLink[:0], 0
	}
	for ; f.rdN < len(f.ftRuns); f.rdN++ {
		for _, op := range f.run(f.rdN) {
			f.rdLink = append(f.rdLink, rdLink{run: int32(f.rdN), next: f.rdHead[op.j]})
			f.rdHead[op.j] = int32(len(f.rdLink) - 1)
		}
	}
}

// lPassNz is the L⁻¹ pass of a hyper-sparse FTRAN: col is scattered into
// sxw (row space) and only the elimination ops reachable from its nonzeros
// run, in ascending index order off the op bitset — an op's scatter
// targets are pivot rows of strictly later ops, so every dependency is
// swept first and the computed values match lPass's float stream on the
// reachable set. It returns the rows it wrote (duplicates and rows
// cancelled back to zero included); the caller reads x from sxw and zeroes
// those rows.
func (f *luFactor) lPassNz(col []entry) []int32 {
	x := f.sxw
	xt := f.lstA[:0]
	ob := f.opBits[:words(len(f.lops))]
	lo := len(ob)
	for _, e := range col {
		x[e.row] = e.val
		xt = append(xt, int32(e.row))
		if li := f.rowOp[e.row]; li >= 0 {
			setBit(ob, li)
			lo = min(lo, int(li>>6))
		}
	}
	for w := lo; w < len(ob); w++ {
		for ob[w] != 0 {
			li := w<<6 | bits.TrailingZeros64(ob[w])
			ob[w] &= ob[w] - 1
			op := &f.lops[li]
			pv := x[op.prow]
			if pv == 0 {
				continue
			}
			for _, e := range op.nz {
				if x[e.row] == 0 {
					xt = append(xt, int32(e.row))
				}
				x[e.row] -= e.val * pv
				if lj := f.rowOp[e.row]; lj >= 0 {
					setBit(ob, lj)
				}
			}
		}
	}
	return xt
}

// ftranColNz is the Forrest–Tomlin kernel's hyper-sparse FTRAN (the
// nonzero-list contract is factor's). The stages mirror solveForward: the
// L pass over the reachable ops (lPassNz); the update runs with a nonzero
// source, ascending off a run bitset seeded and grown through the reader
// index (a run that turns its step nonzero marks the later runs reading
// it); and the U back-substitution over the reachable steps, the key
// bitset swept descending (step k's dependents through ucols are logically
// earlier, so they join below the sweep). Each stage runs solveForward's
// arithmetic in its order on every entry it visits and leaves only zeros
// unvisited, so the nonzeros are solveForward's to the bit. The list comes
// back in descending logical order — the order the ratio test's first-wins
// tie-break sees.
func (f *ftFactor) ftranColNz(col []entry, out []float64, prev []int32) []int32 {
	f.ensureNzScratch()
	for _, p := range prev {
		out[p] = 0
	}
	x := f.sxw
	xt := f.lPassNz(col)

	// FT row ops on the step-space rhs (z₀[k] ≡ x[permRow[k]]), run by run
	// in application order. A run none of whose sources is nonzero would
	// only skip every op, so it is never visited.
	if len(f.ftRuns) > 0 {
		f.indexRuns()
		rb := f.rbits[:words(len(f.ftRuns))]
		markReaders := func(k, after int32) {
			for l := f.rdHead[k]; l >= 0 && f.rdLink[l].run > after; l = f.rdLink[l].next {
				setBit(rb, f.rdLink[l].run)
			}
		}
		for _, r := range xt {
			if x[r] != 0 {
				markReaders(f.stepOfRow[r], -1)
			}
		}
		for w := range rb {
			for rb[w] != 0 {
				i := w<<6 | bits.TrailingZeros64(rb[w])
				rb[w] &= rb[w] - 1
				ops := f.run(i)
				s := ops[0].s
				rr := f.permRow[s]
				old := x[rr]
				for oi := range ops {
					op := &ops[oi]
					if pv := x[f.permRow[op.j]]; pv != 0 {
						if x[rr] == 0 {
							xt = append(xt, rr)
						}
						x[rr] -= op.val * pv
					}
				}
				if old == 0 && x[rr] != 0 {
					markReaders(s, int32(i))
				}
			}
		}
	}

	// U back-substitution, descending in *logical* order over the reachable
	// steps. The seeding pass doubles as the spike stash: x here is F(a) in
	// row space, exactly the spike column an updateNz absorbing this column
	// needs.
	z, kb := f.szw, f.kbits
	hi := -1
	sk, sv := f.stashK[:0], f.stashV[:0]
	for _, r := range xt {
		if x[r] == 0 {
			continue
		}
		if k := f.stepOfRow[r]; !hasBit(kb, f.ord[k]) {
			setBit(kb, f.ord[k])
			hi = max(hi, int(f.ord[k]>>6))
			sk = append(sk, k)
			sv = append(sv, x[r])
		}
	}
	f.stashK, f.stashV = sk, sv
	f.stashPtr = &out[0]
	zt := f.lstB[:0]
	for w := hi; w >= 0; w-- {
		for kb[w] != 0 {
			b := 63 - bits.LeadingZeros64(kb[w])
			kb[w] &^= 1 << b
			k := f.ordStep[w<<6|b]
			v := x[f.permRow[k]]
			for _, e := range f.ur[k] {
				v -= e.val * z[e.k]
			}
			xr := f.overflow(k)
			for i := len(xr) - 1; i >= 0; i-- {
				v -= xr[i].val * z[xr[i].k]
			}
			t := v / f.ud[k]
			z[k] = t
			zt = append(zt, k)
			if t != 0 {
				for _, c := range f.ucols[k] {
					setBit(kb, f.ord[c])
				}
			}
		}
	}
	for _, r := range xt {
		x[r] = 0
	}
	// Permute to position space.
	nz := prev[:0]
	for _, k := range zt {
		p := f.permPos[k]
		out[p] = z[k]
		z[k] = 0
		nz = append(nz, p)
	}
	f.lstA, f.lstB = xt[:0], zt[:0]
	return nz
}

// btranUnitNz is the Forrest–Tomlin kernel's hyper-sparse BTRAN of a unit
// vector (the nonzero-list contract is factor's; the list comes back in
// worklist order). Mirrors solveBackward: the Uᵀ forward solve sweeps the
// key bitset ascending (step k scatters into logically later steps), the
// transposed update runs apply newest first — skipping each run whose step
// holds a zero, as its every op would — and btranLTranspose finishes.
func (f *ftFactor) btranUnitNz(r int, out []float64, prev []int32) []int32 {
	f.ensureNzScratch()
	for _, p := range prev {
		out[p] = 0
	}

	z, kb := f.szw, f.kbits[:words(len(f.ordStep))]
	k0 := f.posStep[r]
	z[k0] = 1
	setBit(kb, f.ord[k0])
	zt := f.lstB[:0]
	for w := int(f.ord[k0] >> 6); w < len(kb); w++ {
		for kb[w] != 0 {
			k := f.ordStep[w<<6|bits.TrailingZeros64(kb[w])]
			kb[w] &= kb[w] - 1
			t := z[k] / f.ud[k]
			z[k] = t
			zt = append(zt, k)
			if t != 0 {
				for _, e := range f.ur[k] {
					setBit(kb, f.ord[e.k])
					z[e.k] -= e.val * t
				}
				for _, e := range f.overflow(k) {
					setBit(kb, f.ord[e.k])
					z[e.k] -= e.val * t
				}
			}
		}
	}
	// Transposed FT runs, newest first. Once one applies, the key bitset
	// marks the listed steps so the ops' targets join the list once.
	listed := false
	for i := len(f.ftRuns) - 1; i >= 0; i-- {
		ops := f.run(i)
		v := z[ops[0].s]
		if v == 0 {
			continue
		}
		if !listed {
			for _, k := range zt {
				setBit(kb, f.ord[k])
			}
			listed = true
		}
		for oi := len(ops) - 1; oi >= 0; oi-- {
			j := ops[oi].j
			if !hasBit(kb, f.ord[j]) {
				setBit(kb, f.ord[j])
				zt = append(zt, j)
			}
			z[j] -= ops[oi].val * v
		}
	}
	if listed {
		for _, k := range zt {
			kb[f.ord[k]>>6] = 0
		}
	}
	nz := f.btranLTranspose(z, zt, out, prev[:0])
	f.lstB = zt[:0]
	return nz
}

// btranLTranspose finishes a hyper-sparse BTRAN from its step-space result:
// each touched step's value in z (zeroed on the way) lands in its row of out
// and joins the row list nz, then the transposed L ops reachable from the
// nonzero rows run descending off the op bitset (the ops reading a pivot
// row have strictly smaller indices than the op that produced it), each
// one ltPass's arithmetic. rmark dedupes the list, which is returned in
// the order the rows were reached.
func (f *luFactor) btranLTranspose(z []float64, zt []int32, out []float64, nz []int32) []int32 {
	ob := f.opBits[:words(len(f.lops))]
	hi := -1
	for _, k := range zt {
		rr := f.permRow[k]
		v := z[k]
		z[k] = 0
		out[rr] = v
		f.rmark[rr] = true
		nz = append(nz, rr)
		if v != 0 {
			for _, li := range f.lrIdx[f.lrPtr[rr]:f.lrPtr[rr+1]] {
				setBit(ob, li)
				hi = max(hi, int(li>>6))
			}
		}
	}
	for w := hi; w >= 0; w-- {
		for ob[w] != 0 {
			b := 63 - bits.LeadingZeros64(ob[w])
			ob[w] &^= 1 << b
			op := &f.lops[w<<6|b]
			s := out[op.prow]
			for _, e := range op.nz {
				s -= e.val * out[e.row]
			}
			pr := op.prow
			out[pr] = s
			if !f.rmark[pr] {
				f.rmark[pr] = true
				nz = append(nz, pr)
			}
			if s != 0 {
				for _, lj := range f.lrIdx[f.lrPtr[pr]:f.lrPtr[pr+1]] {
					setBit(ob, lj)
				}
			}
		}
	}
	for _, rr := range nz {
		f.rmark[rr] = false
	}
	return nz
}

// share marks the factorization outputs `shared` and returns a view of
// them: the same immutable slices, no scratch. From here on the next
// refactorize/reset on either side allocates fresh arrays instead of
// recycling these. A kernel already marked is only read, so goroutines may
// take views of one captured snapshot concurrently.
func (f *luFactor) share() luFactor {
	if !f.shared {
		f.shared = true
	}
	return luFactor{
		m:         f.m,
		shared:    true,
		lops:      f.lops,
		ur:        f.ur,
		ud:        f.ud,
		permRow:   f.permRow,
		permPos:   f.permPos,
		posStep:   f.posStep,
		stepOfRow: f.stepOfRow,
		rowOp:     f.rowOp,
		lrPtr:     f.lrPtr,
		lrIdx:     f.lrIdx,
		baseNnz:   f.baseNnz,
		drift:     f.drift,
	}
}

// clone snapshots the representation as a view. The eta file gets a fresh
// header array because the live solver keeps appending to its own; the eta
// nonzero lists stay on the parent's arena, which the shared flag protects
// from rewinding (appends past the current length never touch a carved
// slice — each is capped at its own end). The reader index stays behind: the
// clone builds its own if it ever runs a hyper-sparse BTRAN or an update.
func (f *etaFactor) clone() factor {
	return &etaFactor{
		luFactor: f.share(),
		etas:     append([]eta(nil), f.etas...),
		etaNnz:   f.etaNnz,
		ucPtr:    f.ucPtr,
		ucIdx:    f.ucIdx,
	}
}

// clone snapshots the representation as a copy-on-write view: Forrest–Tomlin
// mutates U in place, so both sides share the mutable set too and are marked
// borrowed. The first update on either side copies it (detach); a refactorize
// or reset leaves it; a side that only solves never copies. The reader index,
// the spike stash and all scratch stay behind.
func (f *ftFactor) clone() factor {
	if !f.borrowed {
		f.borrowed = true
	}
	return &ftFactor{
		luFactor: f.share(),
		borrowed: true,
		ftOps:    f.ftOps,
		ftRuns:   f.ftRuns,
		ftNnz:    f.ftNnz,
		nupd:     f.nupd,
		ord:      f.ord,
		ordStep:  f.ordStep,
		xrow:     f.xrow,
		xs:       f.xs,
		ucols:    f.ucols,
	}
}

// detach gives a borrowed kernel its own copy of the mutable set, rows and
// spans compacted in their order. The reader index and the spike stash
// describe contents the copy keeps, so both carry over: the update that
// triggered the copy still absorbs its FTRAN's stashed spike.
func (f *ftFactor) detach() {
	if !f.borrowed {
		return
	}
	f.borrowed = false
	f.ud = append([]float64(nil), f.ud...)
	f.ur, f.ucols = flatten(f.ur), flatten(f.ucols)
	xrow := make([]xspan, f.m)
	xs := make([]lue, 0, len(f.xs))
	for k := range f.xrow {
		xrow[k] = xspan{off: int32(len(xs)), n: f.xrow[k].n, cap: f.xrow[k].n}
		xs = append(xs, f.overflow(int32(k))...)
	}
	f.xrow, f.xs = xrow, xs
	f.ftOps = append([]ftOp(nil), f.ftOps...)
	f.ftRuns = append([]int32(nil), f.ftRuns...)
	f.ord = append([]int32(nil), f.ord...)
	f.ordStep = append([]int32(nil), f.ordStep...)
}

// flatten copies rows into one backing array, each row capped at its end.
func flatten[T any](rows [][]T) [][]T {
	total := 0
	for _, row := range rows {
		total += len(row)
	}
	flat, out := make([]T, 0, total), make([][]T, len(rows))
	for k, row := range rows {
		start := len(flat)
		flat = append(flat, row...)
		out[k] = flat[start:len(flat):len(flat)]
	}
	return out
}
