package sched

import (
	"math"
	"math/rand"
	"testing"

	"pretium/internal/cost"
	"pretium/internal/graph"
	"pretium/internal/lp"
)

// greedyNet builds a diamond: s->x->d and s->y->d, capacity 10 each.
func greedyNet(t *testing.T) (*graph.Network, []graph.Path) {
	t.Helper()
	net := graph.New()
	s := net.AddNode("s", "r")
	x := net.AddNode("x", "r")
	y := net.AddNode("y", "r")
	d := net.AddNode("d", "r")
	net.AddEdge(s, x, 10)
	net.AddEdge(x, d, 10)
	net.AddEdge(s, y, 10)
	net.AddEdge(y, d, 10)
	return net, net.KShortestPaths(s, d, 2)
}

func checkGreedyFeasible(t *testing.T, ins *Instance, res *Result) {
	t.Helper()
	for e := range res.EdgeUsage {
		for tt, u := range res.EdgeUsage[e] {
			// The LP's capacity row: scheduled flows <= Capacity, with
			// FixedUsage charged to cost windows only.
			limit := max(ins.Capacity[e][tt], 0)
			if u > limit+1e-6 {
				t.Fatalf("edge %d over capacity at t=%d: %v > %v", e, tt, u, limit)
			}
		}
	}
	for di, d := range ins.Demands {
		if res.Delivered[di] > d.MaxBytes+1e-6 {
			t.Errorf("demand %d overdelivered: %v > %v", di, res.Delivered[di], d.MaxBytes)
		}
	}
	// Allocs must be consistent with Delivered/EdgeUsage and placement rules.
	delivered := make([]float64, len(ins.Demands))
	usage := make([][]float64, len(res.EdgeUsage))
	for e := range usage {
		usage[e] = make([]float64, ins.Horizon)
	}
	for _, al := range res.Allocs {
		d := &ins.Demands[al.DemandIdx]
		if al.Time < ins.StartStep || al.Time < d.Start || al.Time > d.End {
			t.Fatalf("alloc outside window: %+v", al)
		}
		delivered[al.DemandIdx] += al.Bytes
		for _, e := range d.Routes[al.RouteIdx] {
			usage[e][al.Time] += al.Bytes
		}
	}
	for di := range delivered {
		if math.Abs(delivered[di]-res.Delivered[di]) > 1e-6 {
			t.Errorf("demand %d: allocs sum %v != Delivered %v", di, delivered[di], res.Delivered[di])
		}
	}
	for e := range usage {
		for tt := range usage[e] {
			if math.Abs(usage[e][tt]-res.EdgeUsage[e][tt]) > 1e-6 {
				t.Errorf("edge %d t=%d: allocs sum %v != EdgeUsage %v", e, tt, usage[e][tt], res.EdgeUsage[e][tt])
			}
		}
	}
}

func TestGreedyDeliversGuaranteeAcrossRoutes(t *testing.T) {
	net, routes := greedyNet(t)
	ins := &Instance{
		Net: net, Horizon: 2, StartStep: 0,
		Capacity: capMatrix(net, 2),
		Demands: []Demand{{
			ID: 0, Routes: routes, Start: 0, End: 1,
			MaxBytes: 40, MinBytes: 40, ValuePerByte: 1,
		}},
		Cost: cost.DefaultConfig(2),
	}
	res, err := ins.SolveGreedy()
	if err != nil {
		t.Fatal(err)
	}
	// 2 routes x 2 steps x 10 capacity: the full guarantee fits only if
	// the water-fill uses both routes and both steps.
	if math.Abs(res.Delivered[0]-40) > 1e-6 {
		t.Errorf("delivered %v, want 40", res.Delivered[0])
	}
	checkGreedyFeasible(t, ins, res)
}

func TestGreedyGuaranteeFirstBeatsValueOrder(t *testing.T) {
	// A high-value best-effort demand competes with a low-value
	// guaranteed one on a single link: the guarantee must win the
	// capacity even though its value is lower.
	net := graph.New()
	a := net.AddNode("a", "r")
	b := net.AddNode("b", "r")
	net.AddEdge(a, b, 10)
	routes := net.KShortestPaths(a, b, 1)
	ins := &Instance{
		Net: net, Horizon: 1, StartStep: 0,
		Capacity: capMatrix(net, 1),
		Demands: []Demand{
			{ID: 0, Routes: routes, Start: 0, End: 0, MaxBytes: 10, MinBytes: 10, ValuePerByte: 0.1},
			{ID: 1, Routes: routes, Start: 0, End: 0, MaxBytes: 10, ValuePerByte: 9},
		},
		Cost: cost.DefaultConfig(1),
	}
	res, err := ins.SolveGreedy()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Delivered[0]-10) > 1e-6 {
		t.Errorf("guaranteed demand delivered %v, want 10", res.Delivered[0])
	}
	if res.Delivered[1] > 1e-6 {
		t.Errorf("best-effort demand delivered %v on a full link", res.Delivered[1])
	}
	checkGreedyFeasible(t, ins, res)
}

// TestGreedyPinnedPlansCountOnce pins the LP's reading of Capacity on a
// pinned instance, the shape the ladder's bottom rung builds: a pinned
// plan of 6 bytes per step on a 10-unit link leaves Capacity 4 and is
// charged as FixedUsage 6. The 8-byte guarantee fits the 4+4 that is
// left; subtracting FixedUsage again would leave it no room at all.
func TestGreedyPinnedPlansCountOnce(t *testing.T) {
	net := graph.New()
	a := net.AddNode("a", "r")
	b := net.AddNode("b", "r")
	net.AddEdge(a, b, 10)
	ins := &Instance{
		Net: net, Horizon: 2, StartStep: 0,
		Capacity:   [][]float64{{4, 4}},
		FixedUsage: [][]float64{{6, 6}},
		Demands: []Demand{{
			ID: 0, Routes: net.KShortestPaths(a, b, 1), Start: 0, End: 1,
			MaxBytes: 8, MinBytes: 8, ValuePerByte: 1,
		}},
		Cost: cost.DefaultConfig(2),
	}
	res, err := ins.SolveGreedy()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Delivered[0]-8) > 1e-6 {
		t.Errorf("delivered %v, want the whole 8-byte guarantee", res.Delivered[0])
	}
	checkGreedyFeasible(t, ins, res)
}

func TestGreedyRespectsAllowed(t *testing.T) {
	net, routes := greedyNet(t)
	ins := &Instance{
		Net: net, Horizon: 4, StartStep: 0,
		Capacity: capMatrix(net, 4),
		Demands: []Demand{{
			ID: 0, Routes: routes, Start: 0, End: 3,
			MaxBytes: 100, ValuePerByte: 1,
			Allowed: []int{0, 2},
		}},
		Cost: cost.DefaultConfig(4),
	}
	res, err := ins.SolveGreedy()
	if err != nil {
		t.Fatal(err)
	}
	// Two allowed steps, each filling both 10-unit routes.
	if math.Abs(res.Delivered[0]-40) > 1e-6 {
		t.Errorf("delivered %v, want 40 (2 routes x 10 x 2 allowed steps)", res.Delivered[0])
	}
	perStep := make([]float64, 4)
	for _, al := range res.Allocs {
		perStep[al.Time] += al.Bytes
	}
	for tt, v := range perStep {
		if (tt == 1 || tt == 3) && v > 1e-9 {
			t.Errorf("bytes at disallowed step %d: %v", tt, v)
		}
	}
	checkGreedyFeasible(t, ins, res)
}

// TestGreedyRandomizedFeasibility is the fallback's core contract: on
// randomized instances (random capacities, windows, guarantees, fixed
// usage) the schedule never exceeds residual capacity, never
// overdelivers, and its allocations are internally consistent.
func TestGreedyRandomizedFeasibility(t *testing.T) {
	wc := graph.DefaultWANConfig()
	wc.Regions, wc.NodesPerRegion = 2, 3
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		wc.Seed = seed
		net := graph.GenerateWAN(wc)
		horizon := 3 + rng.Intn(6)
		start := rng.Intn(horizon)
		capacity := make([][]float64, net.NumEdges())
		fixed := make([][]float64, net.NumEdges())
		for _, e := range net.Edges() {
			capacity[e.ID] = make([]float64, horizon)
			fixed[e.ID] = make([]float64, horizon)
			for tt := 0; tt < horizon; tt++ {
				capacity[e.ID][tt] = e.Capacity * rng.Float64()
				if rng.Float64() < 0.2 {
					fixed[e.ID][tt] = capacity[e.ID][tt] * rng.Float64() * 1.2
				}
			}
		}
		nodes := net.NumNodes()
		var demands []Demand
		for i := 0; i < 8; i++ {
			src := graph.NodeID(rng.Intn(nodes))
			dst := graph.NodeID(rng.Intn(nodes))
			if src == dst {
				continue
			}
			routes := net.KShortestPaths(src, dst, 1+rng.Intn(2))
			if len(routes) == 0 {
				continue
			}
			s := rng.Intn(horizon)
			e := s + rng.Intn(horizon-s)
			maxB := 5 + 40*rng.Float64()
			d := Demand{
				ID: i, Routes: routes, Start: s, End: e,
				MaxBytes: maxB, ValuePerByte: rng.Float64() * 3,
			}
			if rng.Float64() < 0.5 {
				d.MinBytes = maxB * rng.Float64()
			}
			demands = append(demands, d)
		}
		ins := &Instance{
			Net: net, Horizon: horizon, StartStep: start,
			Capacity: capacity, FixedUsage: fixed, Demands: demands,
			Cost: cost.DefaultConfig(horizon),
		}
		res, err := ins.SolveGreedy()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkGreedyFeasible(t, ins, res)

		// Determinism: the same instance must produce the same schedule.
		res2, err := ins.SolveGreedy()
		if err != nil {
			t.Fatalf("seed %d re-run: %v", seed, err)
		}
		if len(res.Allocs) != len(res2.Allocs) {
			t.Fatalf("seed %d: nondeterministic alloc count %d vs %d", seed, len(res.Allocs), len(res2.Allocs))
		}
		for i := range res.Allocs {
			if res.Allocs[i] != res2.Allocs[i] {
				t.Fatalf("seed %d: nondeterministic alloc %d: %+v vs %+v", seed, i, res.Allocs[i], res2.Allocs[i])
			}
		}
	}
}

// TestGreedyCostAwareness pins the fallback's pricing policy on a
// diamond whose second route crosses a usage-priced edge (C_e = 5):
// guarantees saturate the unpriced route before spilling onto the priced
// one, best-effort bytes take the priced route only when their value
// covers the pessimistic C_e burden, and below-value best effort places
// nothing there at all.
func TestGreedyCostAwareness(t *testing.T) {
	net := graph.New()
	s := net.AddNode("s", "r")
	x := net.AddNode("x", "r")
	y := net.AddNode("y", "r")
	d := net.AddNode("d", "r")
	e0 := net.AddEdge(s, x, 10)
	e1 := net.AddEdge(x, d, 10)
	e2 := net.AddEdge(s, y, 10)
	e3 := net.AddEdge(y, d, 10)
	net.SetUsagePriced(e2, 5)
	// Priced route first: route *selection*, not Routes order, must keep
	// traffic off the charged pipe.
	routes := []graph.Path{{e2, e3}, {e0, e1}}

	ins := &Instance{
		Net: net, Horizon: 2, StartStep: 0,
		Capacity: capMatrix(net, 2),
		Demands: []Demand{
			// Guarantee needing 30 over 2 steps: the unpriced route carries
			// 20, so exactly 10 must spill onto the priced route.
			{ID: 0, Routes: routes, Start: 0, End: 1, MaxBytes: 30, MinBytes: 30, ValuePerByte: 0.5},
			// Below break-even (1 < 5): must not buy the priced route.
			{ID: 1, Routes: routes, Start: 0, End: 1, MaxBytes: 20, ValuePerByte: 1},
			// Above break-even (6 > 5): allowed onto the priced route.
			{ID: 2, Routes: routes, Start: 0, End: 1, MaxBytes: 10, ValuePerByte: 6},
		},
		Cost:         cost.DefaultConfig(2),
		UseCostProxy: true,
	}
	res, err := ins.SolveGreedy()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Delivered[0]-30) > 1e-6 {
		t.Errorf("guarantee delivered %v, want 30 (ships even over the priced route)", res.Delivered[0])
	}
	if res.Delivered[1] > 1e-6 {
		t.Errorf("below-value best effort delivered %v, want 0 (unpriced route full, priced route costs 5 > value 1)", res.Delivered[1])
	}
	if math.Abs(res.Delivered[2]-10) > 1e-6 {
		t.Errorf("above-value best effort delivered %v, want 10", res.Delivered[2])
	}
	var pricedUse, freeUse float64
	for tt := 0; tt < 2; tt++ {
		pricedUse += res.EdgeUsage[e2][tt]
		freeUse += res.EdgeUsage[e0][tt]
	}
	if math.Abs(freeUse-20) > 1e-6 {
		t.Errorf("unpriced route carried %v, want 20 (saturated before any spill)", freeUse)
	}
	// 10 guarantee spill + 10 high-value best effort, nothing from demand 1.
	if math.Abs(pricedUse-20) > 1e-6 {
		t.Errorf("priced route carried %v, want 20", pricedUse)
	}
	for _, al := range res.Allocs {
		if al.DemandIdx == 1 && al.RouteIdx == 0 {
			t.Errorf("below-value demand placed %v bytes on the priced route at t=%d", al.Bytes, al.Time)
		}
	}
	checkGreedyFeasible(t, ins, res)
}

// TestGreedyMatchesLPWhenUncontended: with a single demand and ample
// capacity the greedy fallback delivers the same bytes the LP would.
func TestGreedyMatchesLPWhenUncontended(t *testing.T) {
	net, routes := greedyNet(t)
	ins := &Instance{
		Net: net, Horizon: 3, StartStep: 0,
		Capacity: capMatrix(net, 3),
		Demands: []Demand{{
			ID: 0, Routes: routes, Start: 0, End: 2,
			MaxBytes: 18, MinBytes: 6, ValuePerByte: 2,
		}},
		Cost: cost.DefaultConfig(3),
	}
	lpRes, err := ins.Solve(lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gRes, err := ins.SolveGreedy()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lpRes.Delivered[0]-gRes.Delivered[0]) > 1e-6 {
		t.Errorf("greedy delivered %v, LP delivered %v", gRes.Delivered[0], lpRes.Delivered[0])
	}
}
