package lp

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestWriteMPSStructure(t *testing.T) {
	m := NewModel()
	m.SetMaximize(true)
	x := m.AddVar(0, 4, 3, "x")
	y := m.AddVar(-2, Inf, 2, "y")
	z := m.AddVar(math.Inf(-1), Inf, 0, "z")
	w := m.AddVar(1, 1, 5, "w")
	m.AddConstraint(LE, 10, Term{x, 1}, Term{y, 2})
	m.AddConstraint(GE, 1, Term{y, 1}, Term{z, -1})
	m.AddConstraint(EQ, 0, Term{z, 1}, Term{w, 1})

	var buf bytes.Buffer
	if err := m.WriteMPS(&buf, "TEST"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"* objective negated",
		"NAME          TEST",
		"ROWS",
		" N  COST",
		" L  R0",
		" G  R1",
		" E  R2",
		"COLUMNS",
		"C0         COST      -3",
		"C0         R0        1",
		"RHS",
		"RHS       R0        10",
		"BOUNDS",
		" UP BND       C0        4",
		" LO BND       C1        -2",
		" MI BND       C2",
		" FX BND       C3        1",
		"ENDATA",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in MPS output:\n%s", want, out)
		}
	}
}

func TestWriteMPSMinNoComment(t *testing.T) {
	m := NewModel()
	x := m.AddVar(0, Inf, 1, "x")
	m.AddConstraint(GE, 2, Term{x, 1})
	var buf bytes.Buffer
	if err := m.WriteMPS(&buf, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "negated") {
		t.Error("minimization model should not carry the negation comment")
	}
	if !strings.Contains(out, "NAME          PRETIUM") {
		t.Error("default name not applied")
	}
	// Default-bounded variables emit no BOUNDS record.
	if strings.Contains(out, "BND       C0") {
		t.Error("unexpected bound record for default-bounded variable")
	}
}
