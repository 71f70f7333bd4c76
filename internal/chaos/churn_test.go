package chaos

import (
	"math"
	"testing"

	"pretium/internal/graph"
	"pretium/internal/pricing"
)

// one is the edge list of a single-link outage.
func one(e graph.EdgeID) []graph.EdgeID { return []graph.EdgeID{e} }

// A link cut is an Outage on one edge with no ramp.
func TestLinkCutWindowAndSurvival(t *testing.T) {
	cases := []struct {
		name string
		cut  Outage
		step int
		want map[int]float64 // step -> capacity after BeforeStep
	}{
		{
			name: "full cut inside window",
			cut:  Outage{From: 2, To: 4},
			step: 2,
			want: map[int]float64{1: 10, 2: 0, 3: 0, 4: 0, 5: 10},
		},
		{
			name: "partial survival",
			cut:  Outage{From: 1, To: 2, Survive: 0.3},
			step: 1,
			want: map[int]float64{0: 10, 1: 3, 2: 3, 3: 10},
		},
		{
			name: "unannounced cut invisible before onset",
			cut:  Outage{From: 3, To: 4},
			step: 2,
			want: map[int]float64{3: 10, 4: 10},
		},
		{
			name: "advance announcement exposes future hole",
			cut:  Outage{From: 3, To: 4, Announce: 1},
			step: 1,
			want: map[int]float64{1: 10, 2: 10, 3: 0, 4: 0, 5: 10},
		},
		{
			name: "announce after onset treated as onset",
			cut:  Outage{From: 1, To: 2, Announce: 5},
			step: 1,
			want: map[int]float64{1: 0, 2: 0},
		},
		{
			name: "window clipped to horizon",
			cut:  Outage{From: 4, To: 99},
			step: 4,
			want: map[int]float64{4: 0, 5: 0},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, e := testState(6)
			c.cut.Edges = one(e)
			c.cut.BeforeStep(c.step, st)
			for tt, want := range c.want {
				if got := st.Capacity(e, tt); got != want {
					t.Errorf("capacity(step %d) = %v, want %v", tt, got, want)
				}
			}
		})
	}
}

// A maintenance drain is an Outage with a Ramp.
func TestMaintenanceDrainRampProfile(t *testing.T) {
	st, e := testState(10)
	d := Outage{Edges: one(e), From: 3, To: 5, Ramp: 2, Survive: 0.2}
	// Announced at ramp start (step 1): the full future profile appears.
	d.BeforeStep(1, st)
	want := map[int]float64{
		0: 10,            // untouched
		1: 10 - 8.0/3,    // ramp down 1/3 of depth 8
		2: 10 - 16.0/3,   // 2/3 of depth
		3: 2, 4: 2, 5: 2, // hold at survive fraction
		6: 10 - 16.0/3, // ramp up mirrors down
		7: 10 - 8.0/3,
		8: 10, 9: 10,
	}
	for tt, w := range want {
		if got := st.Capacity(e, tt); !near(got, w) {
			t.Errorf("capacity(step %d) = %v, want %v", tt, got, w)
		}
	}
	// The profile is idempotent under replay at later steps.
	d.BeforeStep(4, st)
	if got := st.Capacity(e, 6); !near(got, 10-16.0/3) {
		t.Errorf("replay changed the profile: %v", got)
	}
}

func TestMaintenanceDrainAbruptAndClamped(t *testing.T) {
	st, e := testState(4)
	// No ramp, full drain, window partially before the horizon start.
	d := Outage{Edges: one(e), From: -2, To: 1, Ramp: 0}
	d.BeforeStep(0, st)
	if got := st.Capacity(e, 0); got != 0 {
		t.Errorf("capacity(0) = %v, want 0", got)
	}
	if got := st.Capacity(e, 2); got != 10 {
		t.Errorf("capacity(2) = %v, want 10", got)
	}
}

// A correlated failure (shared-risk link group) is an Outage on several
// edges: they fail together.
func TestCorrelatedFailureCutsGroupAtomically(t *testing.T) {
	n := graph.New()
	a := n.AddNode("a", "r")
	b := n.AddNode("b", "r")
	c := n.AddNode("c", "r")
	e1 := n.AddEdge(a, b, 10)
	e2 := n.AddEdge(b, c, 20)
	e3 := n.AddEdge(a, c, 30)
	st := pricing.NewState(n, 4, 1)

	srlg := Outage{Edges: []graph.EdgeID{e1, e2}, From: 1, To: 2, Survive: 0.1}
	srlg.BeforeStep(0, st) // before onset: nothing
	if st.Capacity(e1, 1) != 10 {
		t.Fatal("SRLG fired before onset")
	}
	srlg.BeforeStep(1, st)
	if got := st.Capacity(e1, 1); !near(got, 1) {
		t.Errorf("e1 capacity = %v, want 1", got)
	}
	if got := st.Capacity(e2, 2); !near(got, 2) {
		t.Errorf("e2 capacity = %v, want 2", got)
	}
	if got := st.Capacity(e3, 1); got != 30 {
		t.Errorf("non-member e3 capacity = %v, want 30", got)
	}
	if got := st.Capacity(e1, 3); got != 10 {
		t.Errorf("e1 capacity outside window = %v, want 10", got)
	}
}

// A flap and a drain composed on the same edge must each restore exactly
// their own contribution: the flap's up-phases leave the drain's
// reduction in place.
func TestFlapAndDrainComposeOnSameEdge(t *testing.T) {
	st, e := testState(8)
	p := Plan{
		Outage{Edges: one(e), From: 0, To: 7, Survive: 0.6},            // -4 everywhere
		Outage{Edges: one(e), From: 0, To: 7, Survive: 0.7, Period: 1}, // -3 on even steps
	}
	for step := 0; step < 8; step++ {
		p.BeforeStep(step, st)
		for tt := step; tt < 8; tt++ {
			want := 6.0 // drain only
			if tt%2 == 0 {
				want = 3 // drain + flap down-phase
			}
			if got := st.Capacity(e, tt); !near(got, want) {
				t.Fatalf("step %d: capacity(%d) = %v, want %v", step, tt, got, want)
			}
		}
	}
	// Repeated flapping composed with the drain must not drift: the
	// up-phase cells sit at exactly the drain's level.
	if got := st.OutageAt(e, 7); !near(got, 4) {
		t.Errorf("odd-step outage = %v, want exactly 4 (drain only)", got)
	}
}

// Table-driven composition-order and overlapping-window cases for Plan.
func TestPlanCompositionAndOverlap(t *testing.T) {
	cases := []struct {
		name string
		plan func(e graph.EdgeID) Plan
		step int
		at   int
		want float64
	}{
		{
			name: "overlapping cuts saturate at zero",
			plan: func(e graph.EdgeID) Plan {
				return Plan{
					Outage{Edges: one(e), From: 0, To: 3, Survive: 0.4},
					Outage{Edges: one(e), From: 2, To: 5, Survive: 0.4},
				}
			},
			step: 2, at: 2, want: 0,
		},
		{
			name: "disjoint windows do not interact",
			plan: func(e graph.EdgeID) Plan {
				return Plan{
					Outage{Edges: one(e), From: 0, To: 1},
					Outage{Edges: one(e), From: 4, To: 5, Survive: 0.5},
				}
			},
			step: 4, at: 4, want: 5,
		},
		{
			name: "order independent: cut then drain",
			plan: func(e graph.EdgeID) Plan {
				return Plan{
					Outage{Edges: one(e), From: 1, To: 2, Survive: 0.8},
					Outage{Edges: one(e), From: 1, To: 2, Survive: 0.7},
				}
			},
			step: 1, at: 2, want: 5, // 10 - 2 - 3
		},
		{
			name: "order independent: drain then cut",
			plan: func(e graph.EdgeID) Plan {
				return Plan{
					Outage{Edges: one(e), From: 1, To: 2, Survive: 0.7},
					Outage{Edges: one(e), From: 1, To: 2, Survive: 0.8},
				}
			},
			step: 1, at: 2, want: 5,
		},
		{
			name: "same edge and window, flap plus drain: both land",
			plan: func(e graph.EdgeID) Plan {
				return Plan{
					Outage{Edges: one(e), From: 1, To: 4, Survive: 0.5, Period: 1},
					Outage{Edges: one(e), From: 1, To: 4, Survive: 0.8, Ramp: 1},
				}
			},
			step: 3, at: 3, want: 3, // 10 - 5 (flap down) - 2 (drain hold)
		},
		{
			name: "an outage in a nested plan sums with its parent's",
			plan: func(e graph.EdgeID) Plan {
				return Plan{
					Outage{Edges: one(e), From: 0, To: 5, Survive: 0.8},
					Plan{SolverOutage{}, Outage{Edges: one(e), From: 0, To: 5, Survive: 0.7}},
				}
			},
			step: 0, at: 0, want: 5,
		},
		{
			name: "price corruption composes with cut",
			plan: func(e graph.EdgeID) Plan {
				return Plan{
					PriceCorruption{From: 0, To: 5, Factor: 2},
					Outage{Edges: one(e), From: 0, To: 5, Survive: 0.5},
				}
			},
			step: 0, at: 0, want: 5,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, e := testState(6)
			p := c.plan(e)
			for s := 0; s <= c.step; s++ {
				p.BeforeStep(s, st)
			}
			if got := st.Capacity(e, c.at); !near(got, c.want) {
				t.Errorf("capacity(%d) = %v, want %v", c.at, got, c.want)
			}
		})
	}
}

// Two outages stacking on one cell saturate (never negative) while the
// overlay keeps their unclamped sum, and each cell the other does not
// cover carries exactly one member's share.
func TestPlanMembersStackAndRestoreIndependently(t *testing.T) {
	st, e := testState(4)
	p := Plan{
		Outage{Edges: one(e), From: 0, To: 1, Survive: 0.2}, // -8
		Outage{Edges: one(e), From: 1, To: 2, Survive: 0.4}, // -6
	}
	p.BeforeStep(0, st)
	p.BeforeStep(1, st)
	for tt, want := range []struct{ out, cap float64 }{{8, 2}, {14, 0}, {6, 4}, {0, 10}} {
		if got := st.OutageAt(e, tt); !near(got, want.out) {
			t.Errorf("OutageAt(%d) = %v, want %v", tt, got, want.out)
		}
		if got := st.Capacity(e, tt); !near(got, want.cap) {
			t.Errorf("Capacity(%d) = %v, want %v", tt, got, want.cap)
		}
	}
	if got := st.Capacity(e, 3); got != 10 {
		t.Errorf("capacity past both windows = %v, want exactly 10", got)
	}
}

// Three unsaturated contributors on one cell are summed in Plan order:
// the values are chosen so that the reverse order rounds differently,
// and reversing the Plan reverses the sum.
func TestPlanSumsContributionsInPlanOrder(t *testing.T) {
	survive := []float64{0.91, 0.83, 0.77}
	var c [3]float64
	for i, s := range survive {
		c[i] = 10 * (1 - s)
	}
	forward, backward := (c[0]+c[1])+c[2], (c[2]+c[1])+c[0]
	if forward == backward {
		t.Fatal("contributions commute in both orders; pick values that do not")
	}
	for _, tc := range []struct {
		order []int
		want  float64
	}{{[]int{0, 1, 2}, forward}, {[]int{2, 1, 0}, backward}} {
		st, e := testState(3)
		var p Plan
		for _, i := range tc.order {
			p = append(p, Outage{Edges: one(e), From: 1, To: 1, Survive: survive[i]})
		}
		p.BeforeStep(1, st)
		if got := st.OutageAt(e, 1); got != tc.want {
			t.Errorf("order %v: OutageAt = %v, want exactly %v", tc.order, got, tc.want)
		}
	}
}

// Each contribution is clamped to [0, capacity] where it is made: a
// Survive below 0 or NaN removes the whole link, one above 1 removes
// nothing, and stacked full cuts still sum past the capacity.
func TestOutageClampsSurvive(t *testing.T) {
	for _, c := range []struct {
		survive float64
		want    float64
	}{{-0.5, 10}, {math.NaN(), 10}, {1.5, 0}, {0.25, 7.5}} {
		st, e := testState(2)
		Outage{Edges: one(e), From: 0, To: 1, Survive: c.survive}.BeforeStep(0, st)
		if got := st.OutageAt(e, 0); got != c.want {
			t.Errorf("Survive %v: OutageAt = %v, want %v", c.survive, got, c.want)
		}
	}
	st, e := testState(2)
	Plan{Outage{Edges: one(e), Survive: -1}, Outage{Edges: one(e), Survive: -1}}.BeforeStep(0, st)
	if got, cap := st.OutageAt(e, 0), st.Capacity(e, 0); got != 20 || cap != 0 {
		t.Errorf("two full cuts: OutageAt %v, Capacity %v, want 20 and 0", got, cap)
	}
}

// Windows that have fully passed leave no residue: capacity at steps
// beyond every window is exactly the original, whatever was composed.
func TestCompositionRestoresAfterAllWindows(t *testing.T) {
	st, e := testState(10)
	p := Plan{
		Outage{Edges: one(e), From: 0, To: 4, Survive: 0.1, Period: 2},
		Outage{Edges: one(e), From: 2, To: 4, Ramp: 2},
		Outage{Edges: one(e), From: 3, To: 5, Survive: 0.25},
		Outage{Edges: one(e), From: 1, To: 6, Survive: 0.5},
	}
	for s := 0; s < 10; s++ {
		p.BeforeStep(s, st)
	}
	for tt := 7; tt < 10; tt++ {
		if got := st.Capacity(e, tt); got != 10 {
			t.Errorf("capacity(%d) = %v, want exactly 10 after all windows", tt, got)
		}
		if got := st.OutageAt(e, tt); got != 0 {
			t.Errorf("outage(%d) = %v, want 0", tt, got)
		}
	}
}

func near(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
