package chaos

import (
	"strings"
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
		want   bool
	}{
		{ModuleSAM, 1, false},
		{ModuleSAM, 2, true},
		{ModuleSAM, 4, true},
		{ModuleSAM, 5, false},
		{ModulePC, 3, false},
	}
	for _, c := range cases {
		if got := o.SolverDown(c.module, c.step); got != c.want {
			t.Errorf("SolverDown(%q, %d) = %v, want %v", c.module, c.step, got, c.want)
		}
	}
	any := SolverOutage{From: 0, To: 10}
	if !any.SolverDown(ModulePC, 3) {
		t.Error("module-any outage left PC up")
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

// A capacity flap is an Outage with a Period: even phases down, odd ones
// whole.
func TestCapacityFlapAlternatesAndRestores(t *testing.T) {
	st, e := testState(6)
	f := Outage{Edges: []graph.EdgeID{e}, From: 0, To: 5, Survive: 0.5, Period: 1}
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

// TestPlanDownWhenAnyMemberDown: a Plan's solver is down at a step when
// any member, nested ones included, takes it down there.
func TestPlanDownWhenAnyMemberDown(t *testing.T) {
	p := Plan{
		PriceCorruption{From: 0, To: 9, Factor: 2},
		SolverOutage{Module: ModuleSAM, From: 0, To: 2},
		Plan{SolverOutage{Module: ModuleSAM, From: 5, To: 5}},
	}
	for _, c := range []struct {
		module string
		step   int
		want   bool
	}{
		{ModuleSAM, 1, true},
		{ModuleSAM, 3, false},
		{ModuleSAM, 5, true},
		{ModulePC, 5, false},
	} {
		if got := p.SolverDown(c.module, c.step); got != c.want {
			t.Errorf("SolverDown(%q, %d) = %v, want %v", c.module, c.step, got, c.want)
		}
	}
	if (Plan{}).SolverDown(ModuleSAM, 0) {
		t.Error("an empty Plan took the solver down")
	}
}

// TestCheckEdges: in-range plans (and no plan) pass; an off-network edge
// or a nil member fails even nested two Plans deep, and the error names
// the member's position. core's TestFaultValidation and
// TestNilChaosMemberRejected reject the same plans through core.New.
func TestCheckEdges(t *testing.T) {
	ok := Plan{
		SolverOutage{},
		Outage{Edges: []graph.EdgeID{1}},
		Plan{Outage{Edges: []graph.EdgeID{0, 1}}},
	}
	for _, in := range []Injector{nil, ok} {
		if err := CheckEdges(in, 2); err != nil {
			t.Errorf("CheckEdges(%+v) = %v, want nil", in, err)
		}
	}
	for _, c := range []struct {
		in   Injector
		want string
	}{
		{Outage{Edges: []graph.EdgeID{-1}}, "chaos: Outage names edge -1"},
		{Plan{ok, Plan{Outage{Edges: []graph.EdgeID{0, 2}}}}, "chaos: Outage[1][0] names edge 2"},
		{Plan{nil}, "chaos: Plan member [0] is nil"},
		{Plan{ok, Plan{SolverOutage{}, nil}}, "chaos: Plan member [1][1] is nil"},
	} {
		if err := CheckEdges(c.in, 2); err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("CheckEdges(%+v) = %v, want %q...", c.in, err, c.want)
		}
	}
}
