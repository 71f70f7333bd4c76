package sched

import (
	"math"
	"testing"

	"pretium/internal/cost"
	"pretium/internal/graph"
	"pretium/internal/lp"
)

// lineNet returns a -> b -> c with the given per-edge capacity.
func lineNet(capacity float64) (*graph.Network, graph.EdgeID, graph.EdgeID) {
	n := graph.New()
	a := n.AddNode("a", "r")
	b := n.AddNode("b", "r")
	c := n.AddNode("c", "r")
	e1 := n.AddEdge(a, b, capacity)
	e2 := n.AddEdge(b, c, capacity)
	return n, e1, e2
}

func capMatrix(n *graph.Network, horizon int) [][]float64 {
	m := make([][]float64, n.NumEdges())
	for _, e := range n.Edges() {
		m[e.ID] = make([]float64, horizon)
		for t := range m[e.ID] {
			m[e.ID][t] = e.Capacity
		}
	}
	return m
}

func solveOK(t *testing.T, ins *Instance) *Result {
	t.Helper()
	res, err := ins.Solve(lp.Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != lp.Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	return res
}

func TestSingleDemandFits(t *testing.T) {
	n, _, _ := lineNet(10)
	path := n.ShortestPath(0, 2)
	ins := &Instance{
		Net:      n,
		Horizon:  4,
		Capacity: capMatrix(n, 4),
		Demands: []Demand{{
			ID: 0, Routes: []graph.Path{path}, Start: 0, End: 3,
			MaxBytes: 25, ValuePerByte: 2,
		}},
		Cost: cost.DefaultConfig(4),
	}
	res := solveOK(t, ins)
	if !almostEq(res.Delivered[0], 25) {
		t.Errorf("delivered %v, want 25", res.Delivered[0])
	}
	if !almostEq(res.Objective, 50) {
		t.Errorf("objective %v, want 50", res.Objective)
	}
	// Capacity respected.
	for e := range res.EdgeUsage {
		for tt, u := range res.EdgeUsage[e] {
			if u > 10+1e-6 {
				t.Errorf("edge %d over capacity at t=%d: %v", e, tt, u)
			}
		}
	}
}

func TestDemandCappedByCapacity(t *testing.T) {
	n, _, _ := lineNet(5)
	path := n.ShortestPath(0, 2)
	ins := &Instance{
		Net: n, Horizon: 2, Capacity: capMatrix(n, 2),
		Demands: []Demand{{
			ID: 0, Routes: []graph.Path{path}, Start: 0, End: 1,
			MaxBytes: 100, ValuePerByte: 1,
		}},
		Cost: cost.DefaultConfig(2),
	}
	res := solveOK(t, ins)
	if !almostEq(res.Delivered[0], 10) { // 5 per step x 2 steps
		t.Errorf("delivered %v, want 10", res.Delivered[0])
	}
}

func TestGuaranteeForcesLowValueFlow(t *testing.T) {
	// Two demands compete; the low-value one holds a guarantee.
	n, _, _ := lineNet(10)
	path := n.ShortestPath(0, 2)
	ins := &Instance{
		Net: n, Horizon: 1, Capacity: capMatrix(n, 1),
		Demands: []Demand{
			{ID: 0, Routes: []graph.Path{path}, Start: 0, End: 0, MaxBytes: 10, ValuePerByte: 5},
			{ID: 1, Routes: []graph.Path{path}, Start: 0, End: 0, MaxBytes: 10, MinBytes: 4, ValuePerByte: 1},
		},
		Cost: cost.DefaultConfig(1),
	}
	res := solveOK(t, ins)
	if !almostEq(res.Delivered[0], 6) || !almostEq(res.Delivered[1], 4) {
		t.Errorf("delivered %v, want [6 4]", res.Delivered)
	}
}

func TestInfeasibleGuaranteeReported(t *testing.T) {
	n, _, _ := lineNet(2)
	path := n.ShortestPath(0, 2)
	ins := &Instance{
		Net: n, Horizon: 1, Capacity: capMatrix(n, 1),
		Demands: []Demand{{
			ID: 0, Routes: []graph.Path{path}, Start: 0, End: 0,
			MaxBytes: 10, MinBytes: 5, ValuePerByte: 1,
		}},
		Cost: cost.DefaultConfig(1),
	}
	res, err := ins.Solve(lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lp.Infeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

// TestShortfallCostPricesTheGuarantee checks the priced guarantee row in
// both builds. A guarantee that cannot fit no longer makes the LP
// infeasible: it falls short, whether it spans one step (presolve folds
// its row into a bound) or two (its row stays). One that fits is kept when
// its shortfall costs more than carrying it (value 1 against a percentile
// bill of 2 per byte), and shorted in full when it costs less.
func TestShortfallCostPricesTheGuarantee(t *testing.T) {
	cases := []struct {
		name          string
		steps         int
		capacity      float64
		shortfallCost float64
		want          float64
	}{
		{"cannot-fit", 1, 2, 3, 2},
		{"cannot-fit-two-steps", 2, 2, 3, 4},
		{"keep", 1, 10, 100, 5},
		{"refund", 1, 10, 0.5, 0},
	}
	for _, tc := range cases {
		n, e1, _ := lineNet(tc.capacity)
		n.SetUsagePriced(e1, 2)
		ins := &Instance{
			Net: n, Horizon: tc.steps, Capacity: capMatrix(n, tc.steps),
			Demands: []Demand{{
				ID: 0, Routes: []graph.Path{n.ShortestPath(0, 2)}, Start: 0, End: tc.steps - 1,
				MaxBytes: 10, MinBytes: 5, ValuePerByte: 1, ShortfallCost: tc.shortfallCost,
			}},
			Cost: cost.DefaultConfig(tc.steps), UseCostProxy: true,
		}
		for _, implicit := range []bool{false, true} {
			res, err := mustBuild(t, ins, implicit).Solve(lp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != lp.Optimal || !almostEq(res.Delivered[0], tc.want) {
				t.Errorf("%s (implicit=%v): status %v, delivered %v, want Optimal and %v",
					tc.name, implicit, res.Status, res.Delivered[0], tc.want)
			}
		}
	}
}

func TestMultiPathSplitting(t *testing.T) {
	// Diamond: two disjoint 2-hop paths of capacity 5 each; demand 10 in
	// one timestep must split across both.
	n := graph.New()
	s := n.AddNode("s", "r")
	a := n.AddNode("a", "r")
	b := n.AddNode("b", "r")
	d := n.AddNode("d", "r")
	n.AddEdge(s, a, 5)
	n.AddEdge(a, d, 5)
	n.AddEdge(s, b, 5)
	n.AddEdge(b, d, 5)
	routes := n.KShortestPaths(s, d, 2)
	if len(routes) != 2 {
		t.Fatalf("want 2 routes, got %d", len(routes))
	}
	ins := &Instance{
		Net: n, Horizon: 1, Capacity: capMatrix(n, 1),
		Demands: []Demand{{
			ID: 0, Routes: routes, Start: 0, End: 0, MaxBytes: 10, ValuePerByte: 1,
		}},
		Cost: cost.DefaultConfig(1),
	}
	res := solveOK(t, ins)
	if !almostEq(res.Delivered[0], 10) {
		t.Errorf("delivered %v, want 10 via both paths", res.Delivered[0])
	}
}

func TestCostProxyShiftsLoadOffPeak(t *testing.T) {
	// One usage-priced edge, k=1 (window = horizon, top-1 = peak). Two
	// demands with overlapping windows: without cost they could pile on
	// one step; with the proxy the optimizer spreads them to halve the
	// peak.
	n := graph.New()
	a := n.AddNode("a", "r")
	b := n.AddNode("b", "r")
	e := n.AddEdge(a, b, 10)
	n.SetUsagePriced(e, 1.5) // cost per unit of peak > value per byte
	path := graph.Path{e}
	ins := &Instance{
		Net: n, Horizon: 2, Capacity: capMatrix(n, 2),
		Demands: []Demand{
			{ID: 0, Routes: []graph.Path{path}, Start: 0, End: 1, MaxBytes: 4, ValuePerByte: 1},
			{ID: 1, Routes: []graph.Path{path}, Start: 0, End: 1, MaxBytes: 4, ValuePerByte: 1},
		},
		Cost:         cost.Config{Percentile: 95, TopFrac: 0.5, WindowLen: 2},
		UseCostProxy: true,
	}
	res := solveOK(t, ins)
	// TopFrac 0.5 over 2 steps -> k=1: charged on the peak step.
	// All 8 bytes are worth 8; flat schedule peaks at 4 -> cost 6,
	// welfare 2. Any imbalance raises the peak and lowers welfare.
	u0, u1 := res.EdgeUsage[e][0], res.EdgeUsage[e][1]
	if !almostEq(u0+u1, 8) {
		t.Fatalf("total usage %v, want 8", u0+u1)
	}
	if math.Abs(u0-u1) > 1e-6 {
		t.Errorf("load not balanced: %v vs %v", u0, u1)
	}
	if !almostEq(res.Objective, 8-1.5*4) {
		t.Errorf("objective %v, want 2", res.Objective)
	}
}

func TestCostProxyDropsWorthlessTraffic(t *testing.T) {
	// Value below marginal cost: scheduling anything loses welfare.
	n := graph.New()
	a := n.AddNode("a", "r")
	b := n.AddNode("b", "r")
	e := n.AddEdge(a, b, 10)
	n.SetUsagePriced(e, 5)
	path := graph.Path{e}
	ins := &Instance{
		Net: n, Horizon: 1, Capacity: capMatrix(n, 1),
		Demands: []Demand{{
			ID: 0, Routes: []graph.Path{path}, Start: 0, End: 0, MaxBytes: 10, ValuePerByte: 1,
		}},
		Cost:         cost.Config{Percentile: 95, TopFrac: 1, WindowLen: 1},
		UseCostProxy: true,
	}
	res := solveOK(t, ins)
	if res.Delivered[0] > 1e-6 {
		t.Errorf("scheduled %v bytes at a loss", res.Delivered[0])
	}
}

func TestStartStepExcludesPast(t *testing.T) {
	n, _, _ := lineNet(5)
	path := n.ShortestPath(0, 2)
	ins := &Instance{
		Net: n, Horizon: 3, StartStep: 2, Capacity: capMatrix(n, 3),
		Demands: []Demand{{
			ID: 0, Routes: []graph.Path{path}, Start: 0, End: 2,
			MaxBytes: 100, ValuePerByte: 1,
		}},
		Cost: cost.DefaultConfig(3),
	}
	res := solveOK(t, ins)
	if !almostEq(res.Delivered[0], 5) { // only step 2 available
		t.Errorf("delivered %v, want 5", res.Delivered[0])
	}
	for _, al := range res.Allocs {
		if al.Time < 2 {
			t.Errorf("allocated in the past at t=%d", al.Time)
		}
	}
}

func TestFixedUsageCountsTowardWindowPeak(t *testing.T) {
	// Past usage of 6 on step 0; scheduling on step 1 beyond 6 raises
	// the window peak (k=1), costing 2/unit against value 1 — so the
	// optimizer fills exactly up to the historical peak, in both builds.
	n := graph.New()
	a := n.AddNode("a", "r")
	b := n.AddNode("b", "r")
	e := n.AddEdge(a, b, 10)
	n.SetUsagePriced(e, 2)
	path := graph.Path{e}
	fixed := [][]float64{{6, 0}}
	ins := &Instance{
		Net: n, Horizon: 2, StartStep: 1, Capacity: capMatrix(n, 2),
		FixedUsage: fixed,
		Demands: []Demand{{
			ID: 0, Routes: []graph.Path{path}, Start: 1, End: 1,
			MaxBytes: 10, ValuePerByte: 1,
		}},
		Cost:         cost.Config{Percentile: 95, TopFrac: 0.5, WindowLen: 2},
		UseCostProxy: true,
	}
	for _, implicit := range []bool{false, true} {
		res, err := mustBuild(t, ins, implicit).Solve(lp.Options{})
		if err != nil || res.Status != lp.Optimal {
			t.Fatalf("implicit=%v: %v %v", implicit, err, res)
		}
		if !almostEq(res.Delivered[0], 6) {
			t.Errorf("implicit=%v: delivered %v, want 6 (fill to historical peak)", implicit, res.Delivered[0])
		}
	}
}

func TestDualPricesReflectCongestion(t *testing.T) {
	// Saturated edge: the capacity dual must equal the marginal value of
	// the displaced demand.
	n := graph.New()
	a := n.AddNode("a", "r")
	b := n.AddNode("b", "r")
	e := n.AddEdge(a, b, 4)
	path := graph.Path{e}
	ins := &Instance{
		Net: n, Horizon: 1, Capacity: capMatrix(n, 1),
		Demands: []Demand{
			{ID: 0, Routes: []graph.Path{path}, Start: 0, End: 0, MaxBytes: 10, ValuePerByte: 3},
			{ID: 1, Routes: []graph.Path{path}, Start: 0, End: 0, MaxBytes: 3, ValuePerByte: 7},
		},
		Cost: cost.DefaultConfig(1),
	}
	res := solveOK(t, ins)
	// The high-value demand is fully served (3 of 4 units); the residual
	// unit goes to the low-value demand, so a marginal unit of capacity
	// is worth the low-value demand's 3 — the link's shadow price.
	if !almostEq(res.Delivered[1], 3) || !almostEq(res.Delivered[0], 1) {
		t.Fatalf("delivered = %v", res.Delivered)
	}
	if !almostEq(res.Price[e][0], 3) {
		t.Errorf("price = %v, want 3", res.Price[e][0])
	}
}

func TestDualPricesIncludeMarginalCost(t *testing.T) {
	// Uncongested but usage-priced edge: price comes from the cost term,
	// ~ C_e on the peak step (k=1).
	n := graph.New()
	a := n.AddNode("a", "r")
	b := n.AddNode("b", "r")
	e := n.AddEdge(a, b, 100)
	n.SetUsagePriced(e, 0.5)
	path := graph.Path{e}
	ins := &Instance{
		Net: n, Horizon: 1, Capacity: capMatrix(n, 1),
		Demands: []Demand{{
			ID: 0, Routes: []graph.Path{path}, Start: 0, End: 0, MaxBytes: 10, ValuePerByte: 2,
		}},
		Cost:         cost.Config{Percentile: 95, TopFrac: 1, WindowLen: 1},
		UseCostProxy: true,
		WantPrices:   true,
	}
	res := solveOK(t, ins)
	if !almostEq(res.Delivered[0], 10) {
		t.Fatalf("delivered %v", res.Delivered[0])
	}
	if !almostEq(res.Price[e][0], 0.5) {
		t.Errorf("price = %v, want marginal cost 0.5", res.Price[e][0])
	}
}

func TestBadInstances(t *testing.T) {
	n, _, _ := lineNet(1)
	if _, err := (&Instance{Net: n, Horizon: 0}).Solve(lp.Options{}); err == nil {
		t.Error("horizon 0 accepted")
	}
	if _, err := (&Instance{Net: n, Horizon: 2, Capacity: nil}).Solve(lp.Options{}); err == nil {
		t.Error("missing capacity accepted")
	}
	path := n.ShortestPath(0, 2)
	ins := &Instance{
		Net: n, Horizon: 1, StartStep: 1, Capacity: capMatrix(n, 1),
		Demands: []Demand{{ID: 0, Routes: []graph.Path{path}, Start: 0, End: 0, MinBytes: 1, MaxBytes: 2, ValuePerByte: 1}},
		Cost:    cost.DefaultConfig(1),
	}
	if _, err := ins.Solve(lp.Options{}); err == nil {
		t.Error("unschedulable guarantee accepted")
	}
	ins2 := &Instance{
		Net: n, Horizon: 1, Capacity: capMatrix(n, 1),
		Demands: []Demand{{ID: 0, Routes: []graph.Path{path}, Start: 0, End: 0, MaxBytes: -1, ValuePerByte: 1}},
		Cost:    cost.DefaultConfig(1),
	}
	if _, err := ins2.Solve(lp.Options{}); err == nil {
		t.Error("negative MaxBytes accepted")
	}
}

func TestAllocsConsistentWithDelivered(t *testing.T) {
	n, _, _ := lineNet(3)
	path := n.ShortestPath(0, 2)
	ins := &Instance{
		Net: n, Horizon: 4, Capacity: capMatrix(n, 4),
		Demands: []Demand{
			{ID: 0, Routes: []graph.Path{path}, Start: 0, End: 3, MaxBytes: 7, ValuePerByte: 2},
			{ID: 1, Routes: []graph.Path{path}, Start: 1, End: 2, MaxBytes: 5, ValuePerByte: 3},
		},
		Cost: cost.DefaultConfig(4),
	}
	res := solveOK(t, ins)
	sum := make([]float64, 2)
	for _, al := range res.Allocs {
		sum[al.DemandIdx] += al.Bytes
		if al.Time < ins.Demands[al.DemandIdx].Start || al.Time > ins.Demands[al.DemandIdx].End {
			t.Errorf("alloc outside demand window: %+v", al)
		}
	}
	for d := range sum {
		if !almostEq(sum[d], res.Delivered[d]) {
			t.Errorf("alloc sum %v != delivered %v for demand %d", sum[d], res.Delivered[d], d)
		}
	}
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-6 }
