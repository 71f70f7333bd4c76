package lp

import (
	"math/rand"
	"testing"
)

// These tests pin the partial (candidate-subset) devex pricing path, which
// production only exercises at hyper-sparse scale: forcing the gate down
// makes the small randomized SAM corpus run it, so equivalence against the
// full scan is cheap to check, and a hand-built state pins the fallback
// trajectory (stalled or exhausted subsets must trigger a collecting full
// sweep, never a premature optimality claim).

// withPartialDevexGate runs fn with the partial-pricing column gate forced
// to gate, restoring the production value afterwards.
func withPartialDevexGate(t *testing.T, gate int, fn func()) {
	t.Helper()
	old := devexPartialMinCols
	devexPartialMinCols = gate
	defer func() { devexPartialMinCols = old }()
	fn()
}

// TestPartialDevexEquivalence: partial devex must land on the same optimum
// as the full scan on the randomized SAM-shaped corpus — cold and with
// presolve — certified by mutual complementary slackness.
func TestPartialDevexEquivalence(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		seed := int64(9100 + trial)
		model := samShapedLP(rand.New(rand.NewSource(seed)), 1.0)
		full, err := solveWith(pricingDevex, model, Options{})
		if err != nil && full == nil {
			t.Fatalf("trial %d: full devex: %v", trial, err)
		}

		part := full
		withPartialDevexGate(t, 1, func() {
			m2 := samShapedLP(rand.New(rand.NewSource(seed)), 1.0)
			part, err = solveWith(pricingDevex, m2, Options{})
			if err != nil && part == nil {
				t.Fatalf("trial %d: partial devex: %v", trial, err)
			}
			requireCrossOptimal(t, m2, part, full, "cold partial-vs-full")

			p2, err := solvePresolvedWith(pricingDevex, m2)
			if err != nil && p2 == nil {
				t.Fatalf("trial %d: partial devex presolve: %v", trial, err)
			}
			requireCrossOptimal(t, m2, p2, full, "presolve partial-vs-full")
		})
	}
}

// partialPricingState hand-builds the minimal state the devex pricing
// functions touch: n maintained reduced costs, unit weights, everything
// nonbasic at its lower bound.
func partialPricingState(dRed []float64) *state {
	n := len(dRed)
	st := &state{
		std:     &standard{n: n, art: make([]bool, n)},
		dRed:    append([]float64(nil), dRed...),
		dvxW:    make([]float64, n),
		atUpper: make([]bool, n),
		basePos: make([]int, n),
	}
	for j := range st.dvxW {
		st.dvxW[j] = 1
	}
	return st
}

// TestPartialDevexSweepFallback pins the fallback trajectory: a collecting
// full sweep must run when the candidate subset stalls (every member went
// well-priced, leaving a violation only a full scan can see) and when the
// per-sweep pick budget drains — and the stall fallback must return the
// column the subset missed, not a bogus optimality claim.
func TestPartialDevexSweepFallback(t *testing.T) {
	withPartialDevexGate(t, 1, func() {
		// col 0: viol 1.0 (sweep winner), col 1: viol 0.5 (admitted: score
		// 0.25 ≥ best/1024), col 2: viol 0.01 (score 1e-4 < best/1024 ≈
		// 9.8e-4 — rejected by the sweep), rest well priced.
		st := partialPricingState([]float64{-1.0, -0.5, -0.01, 0, 0, 0})

		q, _, _ := st.priceDevex(false)
		if q != 0 {
			t.Fatalf("first pick = %d, want the full-scan winner 0", q)
		}
		if st.dvxSweeps != 1 {
			t.Fatalf("dvxSweeps = %d after first pick, want 1 (seeding sweep)", st.dvxSweeps)
		}
		if len(st.dvxCand) != 2 {
			t.Fatalf("candidate subset %v, want the two above-threshold columns", st.dvxCand)
		}

		// Stall the subset: both members go well-priced (as if their pivots
		// resolved them); only the rejected col 2 still violates.
		st.dRed[0], st.dRed[1] = 0, 0
		q, _, qD := st.priceDevex(false)
		if q != 2 || qD != -0.01 {
			t.Fatalf("stalled-subset pick = %d (d=%g), want fallback sweep to find col 2", q, qD)
		}
		if st.dvxSweeps != 2 {
			t.Fatalf("dvxSweeps = %d after stall, want 2 (fallback sweep ran)", st.dvxSweeps)
		}

		// Budget drain: the rebuilt subset ([2]) serves dvxSweepEvery picks
		// without a sweep, then the budget forces the next full sweep.
		for k := 0; k < dvxSweepEvery; k++ {
			if q, _, _ = st.priceDevex(false); q != 2 {
				t.Fatalf("budget pick %d = %d, want 2", k, q)
			}
			if st.dvxSweeps != 2 {
				t.Fatalf("dvxSweeps = %d during budget picks, want 2", st.dvxSweeps)
			}
		}
		if q, _, _ = st.priceDevex(false); q != 2 {
			t.Fatalf("post-budget pick = %d, want 2", q)
		}
		if st.dvxSweeps != 3 {
			t.Fatalf("dvxSweeps = %d after budget drained, want 3", st.dvxSweeps)
		}

		// Exhausted problem: nothing violates anywhere — the subset scan
		// comes up empty, the mandatory verification sweep runs, and only
		// then may pricing report optimality.
		st.dRed[2] = 0
		if q, _, _ = st.priceDevex(false); q != -1 {
			t.Fatalf("well-priced pick = %d, want -1", q)
		}
		if st.dvxSweeps != 4 {
			t.Fatalf("dvxSweeps = %d after optimality claim, want 4 (verification sweep)", st.dvxSweeps)
		}
	})
}

// TestPriceBlandMaintained pins the anti-cycling rule over the maintained
// reduced costs (the devex stall path, priceBland with no duals):
// lowest-index violating column wins regardless of magnitude, artificials
// are skipped when locked out, and a well-priced array reports optimality.
func TestPriceBlandMaintained(t *testing.T) {
	st := partialPricingState([]float64{0, -1e-6, -5, 0, 2})
	st.std.art[1] = true
	st.atUpper[4] = true // d > 0 violates only from the upper bound

	if q, fu, d := st.priceBland(nil, nil, false); q != 1 || fu || d != -1e-6 {
		t.Fatalf("pick = (%d, %v, %g), want the lowest violating index 1", q, fu, d)
	}
	if q, _, _ := st.priceBland(nil, nil, true); q != 2 {
		t.Fatalf("skipArt pick = %d, want 2 (artificial 1 locked out)", q)
	}
	st.basePos[2] = 3 // basic columns never price
	if q, fu, d := st.priceBland(nil, nil, true); q != 4 || !fu || d != 2 {
		t.Fatalf("pick = (%d, %v, %g), want the at-upper violation 4", q, fu, d)
	}
	st.dRed[4] = 0
	if q, _, _ := st.priceBland(nil, nil, true); q != -1 {
		t.Fatalf("well-priced pick = %d, want -1", q)
	}
}
