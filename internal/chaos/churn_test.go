package chaos

import (
	"testing"

	"pretium/internal/graph"
	"pretium/internal/pricing"
)

func TestLinkCutWindowAndSurvival(t *testing.T) {
	cases := []struct {
		name string
		cut  LinkCut
		step int
		want map[int]float64 // step -> capacity after BeforeStep
	}{
		{
			name: "full cut inside window",
			cut:  LinkCut{From: 2, To: 4},
			step: 2,
			want: map[int]float64{1: 10, 2: 0, 3: 0, 4: 0, 5: 10},
		},
		{
			name: "partial survival",
			cut:  LinkCut{From: 1, To: 2, Survive: 0.3},
			step: 1,
			want: map[int]float64{0: 10, 1: 3, 2: 3, 3: 10},
		},
		{
			name: "unannounced cut invisible before onset",
			cut:  LinkCut{From: 3, To: 4},
			step: 2,
			want: map[int]float64{3: 10, 4: 10},
		},
		{
			name: "advance announcement exposes future hole",
			cut:  LinkCut{From: 3, To: 4, Announce: 1},
			step: 1,
			want: map[int]float64{1: 10, 2: 10, 3: 0, 4: 0, 5: 10},
		},
		{
			name: "announce after onset treated as onset",
			cut:  LinkCut{From: 1, To: 2, Announce: 5},
			step: 1,
			want: map[int]float64{1: 0, 2: 0},
		},
		{
			name: "window clipped to horizon",
			cut:  LinkCut{From: 4, To: 99},
			step: 4,
			want: map[int]float64{4: 0, 5: 0},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, e := testState(6)
			c.cut.Edge = e
			c.cut.BeforeStep(c.step, st)
			for tt, want := range c.want {
				if got := st.Capacity(e, tt); got != want {
					t.Errorf("capacity(step %d) = %v, want %v", tt, got, want)
				}
			}
		})
	}
}

func TestMaintenanceDrainRampProfile(t *testing.T) {
	st, e := testState(10)
	d := MaintenanceDrain{Edge: e, From: 3, To: 5, Ramp: 2, Survive: 0.2}
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
	d := MaintenanceDrain{Edge: e, From: -2, To: 1, Ramp: 0}
	d.BeforeStep(0, st)
	if got := st.Capacity(e, 0); got != 0 {
		t.Errorf("capacity(0) = %v, want 0", got)
	}
	if got := st.Capacity(e, 2); got != 10 {
		t.Errorf("capacity(2) = %v, want 10", got)
	}
}

func TestCorrelatedFailureCutsGroupAtomically(t *testing.T) {
	n := graph.New()
	a := n.AddNode("a", "r")
	b := n.AddNode("b", "r")
	c := n.AddNode("c", "r")
	e1 := n.AddEdge(a, b, 10)
	e2 := n.AddEdge(b, c, 20)
	e3 := n.AddEdge(a, c, 30)
	st := pricing.NewState(n, 4, 1)

	srlg := CorrelatedFailure{Edges: []graph.EdgeID{e1, e2}, From: 1, To: 2, Survive: 0.1}
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

// The satellite regression: a flap and a drain composed on the same edge
// must each restore exactly their own contribution. Under the old
// set-aside arithmetic the flap's up-phase zeroed the drain's reduction.
func TestFlapAndDrainComposeOnSameEdge(t *testing.T) {
	st, e := testState(8)
	p := Plan{
		MaintenanceDrain{Edge: e, From: 0, To: 7, Ramp: 0, Survive: 0.6}, // -4 everywhere
		CapacityFlap{Edge: e, From: 0, To: 7, Period: 1, Frac: 0.3},      // -3 on even steps
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
					LinkCut{Edge: e, From: 0, To: 3, Survive: 0.4},
					LinkCut{Edge: e, From: 2, To: 5, Survive: 0.4},
				}
			},
			step: 2, at: 2, want: 0,
		},
		{
			name: "disjoint windows do not interact",
			plan: func(e graph.EdgeID) Plan {
				return Plan{
					LinkCut{Edge: e, From: 0, To: 1},
					LinkCut{Edge: e, From: 4, To: 5, Survive: 0.5},
				}
			},
			step: 4, at: 4, want: 5,
		},
		{
			name: "order independent: cut then drain",
			plan: func(e graph.EdgeID) Plan {
				return Plan{
					LinkCut{Edge: e, From: 1, To: 2, Survive: 0.8},
					MaintenanceDrain{Edge: e, From: 1, To: 2, Ramp: 0, Survive: 0.7},
				}
			},
			step: 1, at: 2, want: 5, // 10 - 2 - 3
		},
		{
			name: "order independent: drain then cut",
			plan: func(e graph.EdgeID) Plan {
				return Plan{
					MaintenanceDrain{Edge: e, From: 1, To: 2, Ramp: 0, Survive: 0.7},
					LinkCut{Edge: e, From: 1, To: 2, Survive: 0.8},
				}
			},
			step: 1, at: 2, want: 5,
		},
		{
			name: "price corruption composes with cut",
			plan: func(e graph.EdgeID) Plan {
				return Plan{
					PriceCorruption{From: 0, To: 5, Factor: 2},
					LinkCut{Edge: e, From: 0, To: 5, Survive: 0.5},
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

// Windows that have fully passed leave no residue: capacity at steps
// beyond every window is exactly the original, whatever was composed.
func TestCompositionRestoresAfterAllWindows(t *testing.T) {
	st, e := testState(10)
	p := Plan{
		CapacityFlap{Edge: e, From: 0, To: 4, Period: 2, Frac: 0.9},
		MaintenanceDrain{Edge: e, From: 2, To: 4, Ramp: 2, Survive: 0},
		LinkCut{Edge: e, From: 3, To: 5, Survive: 0.25},
		CorrelatedFailure{Edges: []graph.EdgeID{e}, From: 1, To: 6, Survive: 0.5},
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
