package cost

import "pretium/internal/lp"

// LoadExpr is the linear expression giving one timestep's load on an edge
// (a sum of request-flow variables in SAM, or a single variable in tests).
type LoadExpr []lp.Term

// AddTopKBound emits the Theorem 4.2 sorting-network constraints into m,
// returning a variable S constrained so that
//
//	S >= sum of the k largest values among the load expressions,
//
// using 3 linear constraints per comparator (the paper improves on [25]'s
// five constraints, a 40% reduction) and O(kT) comparators in total. The
// bound is tight whenever the surrounding objective pressures S downward —
// which is the case for every use in this repository, since S appears only
// with negative objective weight (as -C_e*S/k in welfare objectives).
//
// The construction mirrors bubble sort: iteration i pushes the i-th
// largest remaining value to the end using a chain of comparators, each
// comparator (x, y) -> (min m, max M) encoded as
//
//	x + y = m + M,   m <= x,   m <= y,
//
// which forces M >= max(x, y). After k iterations, S is lower-bounded by
// the sum of the k bubbled maxima, hence by the top-k sum.
func AddTopKBound(m *lp.Model, loads []LoadExpr, k int) lp.Var {
	T := len(loads)
	if T == 0 {
		panic("cost: AddTopKBound with no loads")
	}
	if k <= 0 {
		panic("cost: AddTopKBound with k <= 0")
	}
	s := m.AddVar(0, lp.Inf, 0)
	if k >= T {
		// Top-T sum is the total: S >= sum of all loads.
		var terms []lp.Term
		terms = append(terms, lp.Term{Var: s, Coef: 1})
		for _, le := range loads {
			for _, t := range le {
				terms = append(terms, lp.Term{Var: t.Var, Coef: -t.Coef})
			}
		}
		m.AddConstraint(lp.GE, 0, terms...)
		return s
	}
	if k == 1 {
		// Top-1 is the max: S >= load_t per timestep — T rows, no
		// comparator variables. This is the common case for daily
		// windows at hourly resolution (k = ceil(0.1*T) = 1 for T <=
		// 14) and much cheaper than the general network.
		for _, le := range loads {
			terms := []lp.Term{{Var: s, Coef: 1}}
			for _, t := range le {
				terms = append(terms, lp.Term{Var: t.Var, Coef: -t.Coef})
			}
			m.AddConstraint(lp.GE, 0, terms...)
		}
		return s
	}

	// Working row of values: starts as the load expressions, becomes
	// single comparator-output variables after the first pass touches
	// them. exprOf abstracts over both.
	type val struct {
		expr LoadExpr // nil when v is set
		v    lp.Var
		set  bool
	}
	cur := make([]val, T)
	for t, le := range loads {
		cur[t] = val{expr: le}
	}
	asTerms := func(x val, coef float64) []lp.Term {
		if x.set {
			return []lp.Term{{Var: x.v, Coef: coef}}
		}
		out := make([]lp.Term, 0, len(x.expr))
		for _, t := range x.expr {
			out = append(out, lp.Term{Var: t.Var, Coef: coef * t.Coef})
		}
		return out
	}
	// comparator emits (min, max) variables for inputs x, y.
	comparator := func(x, y val) (val, val) {
		mn := m.AddVar(0, lp.Inf, 0)
		mx := m.AddVar(0, lp.Inf, 0)
		// x + y - m - M = 0.
		terms := append(asTerms(x, 1), asTerms(y, 1)...)
		terms = append(terms, lp.Term{Var: mn, Coef: -1}, lp.Term{Var: mx, Coef: -1})
		m.AddConstraint(lp.EQ, 0, terms...)
		// m - x <= 0 and m - y <= 0.
		m.AddConstraint(lp.LE, 0, append(asTerms(x, -1), lp.Term{Var: mn, Coef: 1})...)
		m.AddConstraint(lp.LE, 0, append(asTerms(y, -1), lp.Term{Var: mn, Coef: 1})...)
		return val{v: mn, set: true}, val{v: mx, set: true}
	}

	maxima := make([]lp.Term, 0, k+1)
	n := T
	for i := 0; i < k; i++ {
		// Bubble pass over cur[0:n]: the running max ends at index n-1.
		carryMax := cur[0]
		next := make([]val, 0, n-1)
		for j := 1; j < n; j++ {
			mn, mx := comparator(carryMax, cur[j])
			next = append(next, mn)
			carryMax = mx
		}
		maxima = append(maxima, lp.Term{Var: carryMax.v, Coef: -1})
		cur = next
		n--
	}
	// S >= sum of bubbled maxima.
	terms := append([]lp.Term{{Var: s, Coef: 1}}, maxima...)
	m.AddConstraint(lp.GE, 0, terms...)
	return s
}

// TopKConstraintCount returns the number of constraints AddTopKBound emits
// for T loads and top-k (excluding the final S row): 3 per comparator.
// Exposed for the ablation benchmarks comparing against the 5-constraint
// construction of [25].
func TopKConstraintCount(T, k int) int {
	if k >= T {
		return 1
	}
	if k == 1 {
		return T
	}
	comparators := 0
	for i := 0; i < k; i++ {
		comparators += T - 1 - i
	}
	return 3*comparators + 1
}
