package lp

import (
	"bufio"
	"fmt"
	"io"
)

// WriteMPS serializes the model in (free-form) MPS format, the lingua
// franca of LP tooling. It lets any model built here — a SAM instance, a
// price-computer LP — be exported and cross-checked against an external
// solver (the paper used Gurobi; `gurobi_cl model.mps` reproduces our
// objective values).
//
// Maximization models are written as minimization with negated objective
// coefficients, with a comment noting the flip, since classic MPS has no
// objective-sense record.
func (m *Model) WriteMPS(w io.Writer, name string) error {
	bw := bufio.NewWriter(w)
	if name == "" {
		name = "PRETIUM"
	}
	sign := 1.0
	if m.maximize {
		sign = -1
		fmt.Fprintln(bw, "* objective negated: original model is a maximization")
	}
	fmt.Fprintf(bw, "NAME          %s\n", name)

	rowName := func(i int) string { return fmt.Sprintf("R%d", i) }
	colName := func(j Var) string { return fmt.Sprintf("C%d", int(j)) }

	fmt.Fprintln(bw, "ROWS")
	fmt.Fprintln(bw, " N  COST")
	for i, s := range m.senses {
		var tag string
		switch s {
		case LE:
			tag = "L"
		case GE:
			tag = "G"
		case EQ:
			tag = "E"
		}
		fmt.Fprintf(bw, " %s  %s\n", tag, rowName(i))
	}

	// COLUMNS: entries grouped per variable.
	fmt.Fprintln(bw, "COLUMNS")
	byVar := make(map[Var][]struct {
		row  int
		coef float64
	})
	for i, terms := range m.rows {
		for _, t := range terms {
			byVar[t.Var] = append(byVar[t.Var], struct {
				row  int
				coef float64
			}{i, t.Coef})
		}
	}
	for j := 0; j < m.NumVars(); j++ {
		v := Var(j)
		if c := m.obj[j]; c != 0 {
			fmt.Fprintf(bw, "    %-10s COST      %.17g\n", colName(v), sign*c)
		}
		for _, e := range byVar[v] {
			fmt.Fprintf(bw, "    %-10s %-9s %.17g\n", colName(v), rowName(e.row), e.coef)
		}
	}

	fmt.Fprintln(bw, "RHS")
	for i, b := range m.rhs {
		if b != 0 {
			fmt.Fprintf(bw, "    RHS       %-9s %.17g\n", rowName(i), b)
		}
	}

	fmt.Fprintln(bw, "BOUNDS")
	for j := 0; j < m.NumVars(); j++ {
		v := Var(j)
		lo, up := m.lo[j], m.up[j]
		name := colName(v)
		switch {
		case lo == 0 && up == Inf:
			// Default bounds; nothing to emit.
		case lo == up:
			fmt.Fprintf(bw, " FX BND       %-9s %.17g\n", name, lo)
		default:
			if lo != 0 {
				if lo == -Inf {
					fmt.Fprintf(bw, " MI BND       %s\n", name)
				} else {
					fmt.Fprintf(bw, " LO BND       %-9s %.17g\n", name, lo)
				}
			}
			if up != Inf {
				fmt.Fprintf(bw, " UP BND       %-9s %.17g\n", name, up)
			}
		}
	}
	fmt.Fprintln(bw, "ENDATA")
	return bw.Flush()
}
