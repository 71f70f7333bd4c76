package chaos

import (
	"testing"

	"pretium/internal/graph"
	"pretium/internal/pricing"
)

func testState(horizon int) (*pricing.State, graph.EdgeID) {
	n := graph.New()
	a := n.AddNode("a", "r")
	b := n.AddNode("b", "r")
	e := n.AddEdge(a, b, 10)
	return pricing.NewState(n, horizon, 1), e
}

func TestSolverOutageWindowAndModule(t *testing.T) {
	o := SolverOutage{Module: ModuleSAM, From: 2, To: 4}
	cases := []struct {
		module string
		step   int
		want   Action
	}{
		{ModuleSAM, 1, Proceed},
		{ModuleSAM, 2, Fail},
		{ModuleSAM, 4, Fail},
		{ModuleSAM, 5, Proceed},
		{ModulePC, 3, Proceed},
	}
	for _, c := range cases {
		if got := o.SolveAction(c.module, c.step); got != c.want {
			t.Errorf("SolveAction(%q, %d) = %v, want %v", c.module, c.step, got, c.want)
		}
	}
	any := SolverOutage{From: 0, To: 10, Mode: Timeout}
	if got := any.SolveAction(ModulePC, 3); got != Timeout {
		t.Errorf("module-any outage = %v, want Timeout", got)
	}
}

func TestPriceCorruptionMutatesOnlyWindowStep(t *testing.T) {
	st, e := testState(4)
	base := st.BasePrice[e][2]
	PriceCorruption{From: 2, To: 2, Factor: 3}.BeforeStep(1, st)
	if st.BasePrice[e][2] != base {
		t.Error("corruption fired outside its window")
	}
	PriceCorruption{From: 2, To: 2, Factor: 3}.BeforeStep(2, st)
	if got := st.BasePrice[e][2]; got != 3*base {
		t.Errorf("price %v, want %v", got, 3*base)
	}
	if st.BasePrice[e][3] != base {
		t.Error("corruption leaked to a later step")
	}
	// Quote cache must see the corrupted price immediately.
	if got := st.MarginalPrice(e, 2, 0); got != 3*base {
		t.Errorf("cached marginal price %v, want %v", got, 3*base)
	}
}

func TestCapacityFlapAlternatesAndRestores(t *testing.T) {
	st, e := testState(6)
	f := CapacityFlap{Edge: e, From: 0, To: 5, Period: 1, Frac: 0.5}
	f.BeforeStep(0, st)
	// Phase even = down: steps 0,2,4 lose half; 1,3,5 keep all.
	for tt := 0; tt < 6; tt++ {
		want := 10.0
		if tt%2 == 0 {
			want = 5
		}
		if got := st.Capacity(e, tt); got != want {
			t.Errorf("step %d capacity %v, want %v", tt, got, want)
		}
	}
	// Determinism: replay from any step rewrites the same future.
	f.BeforeStep(3, st)
	if got := st.Capacity(e, 4); got != 5 {
		t.Errorf("step 4 capacity after replay %v, want 5", got)
	}
	if got := st.Capacity(e, 3); got != 10 {
		t.Errorf("step 3 capacity after replay %v, want 10", got)
	}
}

func TestPlanComposesWorstAction(t *testing.T) {
	p := Plan{
		SolverOutage{Module: ModuleSAM, From: 0, To: 9, Mode: Timeout},
		SolverOutage{Module: ModuleSAM, From: 5, To: 5, Mode: Fail},
	}
	if got := p.SolveAction(ModuleSAM, 3); got != Timeout {
		t.Errorf("step 3 = %v, want Timeout", got)
	}
	if got := p.SolveAction(ModuleSAM, 5); got != Fail {
		t.Errorf("step 5 = %v, want Fail (worst wins)", got)
	}
	if got := p.SolveAction(ModulePC, 5); got != Proceed {
		t.Errorf("PC = %v, want Proceed", got)
	}
}

// TestCheckEdges: in-range plans (and no plan) pass; an off-network edge
// fails even nested two Plans deep. core's TestFaultValidation rejects
// each edge-bearing injector through core.New.
func TestCheckEdges(t *testing.T) {
	ok := Plan{
		SolverOutage{},
		LinkCut{Edge: 1},
		MaintenanceDrain{Edge: 0},
		CapacityFlap{Edge: 1},
		Plan{CorrelatedFailure{Edges: []graph.EdgeID{0, 1}}},
	}
	for _, in := range []Injector{nil, ok} {
		if err := CheckEdges(in, 2); err != nil {
			t.Errorf("CheckEdges(%+v) = %v, want nil", in, err)
		}
	}
	if err := CheckEdges(Plan{ok, Plan{CorrelatedFailure{Edges: []graph.EdgeID{0, 2}}}}, 2); err == nil {
		t.Error("CheckEdges accepted a nested edge outside 2")
	}
}
