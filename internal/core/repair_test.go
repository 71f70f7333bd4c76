package core

import (
	"math"
	"testing"

	"pretium/internal/chaos"
	"pretium/internal/graph"
	"pretium/internal/sim"
	"pretium/internal/traffic"
)

// twoPathNet: a -> b directly (e1, capacity 10) and via c (e2a + e2b,
// capacity 10 each). The direct path is cheaper (one priced edge), so
// deterministic admission always reserves it first.
func twoPathNet() (n *graph.Network, a, b graph.NodeID, e1, e2a, e2b graph.EdgeID) {
	n = graph.New()
	a = n.AddNode("a", "r")
	b = n.AddNode("b", "r")
	c := n.AddNode("c", "r")
	e1 = n.AddEdge(a, b, 10)
	e2a = n.AddEdge(a, c, 10)
	e2b = n.AddEdge(c, b, 10)
	return
}

// repairEvents filters the Health report down to the repair module and
// fails the test unless exactly one event at the wanted level exists.
func requireRepairLevel(t *testing.T, c *Controller, want Level) Event {
	t.Helper()
	evs := c.Health.EventsAt(ModuleRepair)
	if len(evs) != 1 {
		t.Fatalf("repair events = %d, want 1: %v", len(evs), evs)
	}
	if evs[0].Level != want {
		t.Fatalf("repair level = %s, want %s (reason: %s)", evs[0].Level, want, evs[0].Reason)
	}
	return evs[0]
}

// checkRefundConservation asserts every refund record recomputes exactly
// from its own inputs and matches the outcome's Refunded accounting.
func checkRefundConservation(t *testing.T, c *Controller, out *sim.Outcome) {
	t.Helper()
	total := 0.0
	for i, r := range c.Refunds {
		if r.Bought > 0 {
			if want := r.Paid * r.Bytes / r.Bought; math.Abs(r.Amount-want) > 1e-9 {
				t.Errorf("refund %d: amount %v, want Paid*Bytes/Bought = %v", i, r.Amount, want)
			}
		}
		total += r.Amount
	}
	sum := 0.0
	for _, x := range out.Refunded {
		sum += x
	}
	if math.Abs(total-sum) > 1e-9 {
		t.Errorf("refund records total %v, outcome.Refunded totals %v", total, sum)
	}
}

// A cut link with a free parallel path: the repair LP re-routes the
// affected transfer, the guarantee survives, and nobody is refunded.
func TestRepairReroutesAroundLinkCut(t *testing.T) {
	n, a, b, e1, _, _ := twoPathNet()
	reqs := []*traffic.Request{mkReq(n, 0, a, b, 0, 1, 2, 10, 5)}
	cfg := smallConfig(4)
	cfg.Chaos = chaos.Outage{Edges: []graph.EdgeID{e1}, From: 1, To: 2}
	c, err := New(n, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireRepairLevel(t, c, LevelRepairReplan)
	if math.Abs(out.Delivered[0]-10) > 1e-6 {
		t.Errorf("delivered %v, want 10 (re-routed)", out.Delivered[0])
	}
	if out.Reneged[0] > 1e-9 {
		t.Errorf("reneged %v, want 0", out.Reneged[0])
	}
	if len(c.Refunds) != 0 {
		t.Errorf("refunds = %v, want none", c.Refunds)
	}
	for tt := 1; tt <= 2; tt++ {
		if u := out.Usage[e1][tt]; u > 1e-9 {
			t.Errorf("cut edge carried %v at t=%d", u, tt)
		}
	}
}

// Re-routing the stranded transfer alone is infeasible (the rigid
// transfer's only slot is occupied by a flexible one), but the joint
// re-plan moves the flexible transfer and repairs both guarantees.
func TestRepairReplansJointly(t *testing.T) {
	n, a, b, e1, e2a, e2b := twoPathNet()
	viaC := graph.Path{e2a, e2b}
	flexible := &traffic.Request{
		ID: 0, Src: a, Dst: b, Routes: []graph.Path{viaC},
		Arrival: 0, Start: 1, End: 2, Demand: 10, Value: 5,
	}
	rigid := &traffic.Request{
		ID: 1, Src: a, Dst: b, Routes: []graph.Path{{e1}, viaC},
		Arrival: 0, Start: 1, End: 1, Demand: 10, Value: 5,
	}
	cfg := smallConfig(4)
	cfg.Chaos = chaos.Outage{Edges: []graph.EdgeID{e1}, From: 1, To: 1}
	c, err := New(n, []*traffic.Request{flexible, rigid}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireRepairLevel(t, c, LevelRepairReplan)
	for i := range out.Delivered {
		if math.Abs(out.Delivered[i]-10) > 1e-6 {
			t.Errorf("req %d delivered %v, want 10", i, out.Delivered[i])
		}
		if out.Reneged[i] > 1e-9 {
			t.Errorf("req %d reneged %v", i, out.Reneged[i])
		}
	}
	if len(c.Refunds) != 0 {
		t.Errorf("refunds = %v, want none", c.Refunds)
	}
}

// A cut link whose only detour crosses a usage-priced edge billed far
// above the guarantee's refund: keeping the promise costs more than
// breaking it, so the repair LP buys it back. The transfer is preempted
// and refunded, and the detour never carries a byte.
func TestRepairRefundsWhenDetourBillExceedsRefund(t *testing.T) {
	n, a, b, e1, e2a, e2b := twoPathNet()
	n.SetUsagePriced(e2a, 1000)
	reqs := []*traffic.Request{mkReq(n, 0, a, b, 0, 1, 2, 10, 5)}
	cfg := smallConfig(4)
	cfg.Chaos = chaos.Outage{Edges: []graph.EdgeID{e1}, From: 1, To: 2}
	c, err := New(n, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireRepairLevel(t, c, LevelRepairPreempt)
	if len(c.Refunds) != 1 || c.Refunds[0].Req != 0 {
		t.Fatalf("refunds = %+v, want one for request 0", c.Refunds)
	}
	if r := c.Refunds[0]; r.Bytes != r.Bought || r.Amount <= 0 {
		t.Errorf("refund %+v: nothing was delivered, want a full, positive refund", r)
	}
	for _, e := range []graph.EdgeID{e2a, e2b} {
		for tt, u := range out.Usage[e] {
			if u > 1e-9 {
				t.Errorf("detour edge %d carried %v at t=%d", e, u, tt)
			}
		}
	}
	if out.Reneged[0] > 1e-9 {
		t.Errorf("reneged %v, want refund not renege", out.Reneged[0])
	}
	checkRefundConservation(t, c, out)
}

// A partial cut leaves room for only one guarantee: the repair LP shorts
// one, which is preempted and refunded in full; the survivor delivers.
func TestRepairPreemptsCheapestAndRefunds(t *testing.T) {
	n, a, b := simpleNet()
	reqs := []*traffic.Request{
		mkReq(n, 0, a, b, 0, 1, 1, 6, 5),
		mkReq(n, 1, a, b, 0, 1, 1, 6, 5),
	}
	cfg := smallConfig(3)
	cfg.Chaos = chaos.Outage{Edges: []graph.EdgeID{0}, From: 1, To: 1, Survive: 0.5}
	c, err := New(n, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireRepairLevel(t, c, LevelRepairPreempt)
	if len(c.Refunds) != 1 {
		t.Fatalf("refunds = %d, want 1: %+v", len(c.Refunds), c.Refunds)
	}
	r := c.Refunds[0]
	if r.Req != 0 {
		t.Errorf("preempted request %d, want 0 (cheapest, lowest index)", r.Req)
	}
	if r.Bytes != r.Bought || math.Abs(r.Amount-r.Paid) > 1e-9 {
		t.Errorf("nothing was delivered, want full refund: %+v", r)
	}
	if out.Delivered[0] > 1e-9 {
		t.Errorf("preempted request delivered %v after preemption", out.Delivered[0])
	}
	if math.Abs(out.Payments[0]) > 1e-9 {
		t.Errorf("preempted request paid %v, want 0 net", out.Payments[0])
	}
	if out.Reneged[0] > 1e-9 || out.Reneged[1] > 1e-9 {
		t.Errorf("reneges %v/%v, want refund not renege", out.Reneged[0], out.Reneged[1])
	}
	if out.Delivered[1] <= 1e-9 {
		t.Error("surviving request delivered nothing")
	}
	if u := out.Usage[0][1]; u > 5+1e-9 {
		t.Errorf("usage %v exceeds surviving capacity 5", u)
	}
	checkRefundConservation(t, c, out)
}

// A guarantee sold at price zero refunds nothing, yet still cannot make
// the repair LP infeasible: when a partial cut leaves room for one of two
// free guarantees, one is preempted (for a zero refund) and the other
// delivers, rather than the repair failing and both reneging.
func TestRepairPreemptsFreeGuarantee(t *testing.T) {
	n, a, b := simpleNet()
	reqs := []*traffic.Request{
		mkReq(n, 0, a, b, 0, 1, 1, 6, 5),
		mkReq(n, 1, a, b, 0, 1, 1, 6, 5),
	}
	cfg := smallConfig(3)
	cfg.InitialPrice, cfg.MinPrice = 0, 0
	cfg.Chaos = chaos.Outage{Edges: []graph.EdgeID{0}, From: 1, To: 1, Survive: 0.5}
	c, err := New(n, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireRepairLevel(t, c, LevelRepairPreempt)
	if len(c.Refunds) != 1 || c.Refunds[0].Paid != 0 || c.Refunds[0].Amount != 0 {
		t.Fatalf("refunds = %+v, want one free guarantee bought back for nothing", c.Refunds)
	}
	if out.Reneged[0] > 1e-9 || out.Reneged[1] > 1e-9 {
		t.Errorf("reneges %v/%v, want preemption not renege", out.Reneged[0], out.Reneged[1])
	}
	checkRefundConservation(t, c, out)
}

// The all-paths-cut worst case with a live solver: nothing is
// schedulable, so every guarantee is bought back — explicitly refunded,
// zero reneges, zero deliveries, zero net payments.
func TestRepairAllPathsCutPreemptsEverything(t *testing.T) {
	n, a, b := simpleNet()
	reqs := []*traffic.Request{
		mkReq(n, 0, a, b, 0, 1, 2, 6, 5),
		mkReq(n, 1, a, b, 0, 1, 2, 4, 5),
	}
	cfg := smallConfig(4)
	cfg.Chaos = chaos.Outage{Edges: []graph.EdgeID{0}, From: 1, To: 2}
	c, err := New(n, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireRepairLevel(t, c, LevelRepairPreempt)
	if len(c.Refunds) != 2 {
		t.Fatalf("refunds = %d, want 2: %+v", len(c.Refunds), c.Refunds)
	}
	for i := range reqs {
		if out.Delivered[i] > 1e-9 {
			t.Errorf("req %d delivered %v on a dead topology", i, out.Delivered[i])
		}
		if out.Reneged[i] > 1e-9 {
			t.Errorf("req %d reneged %v, want explicit refund", i, out.Reneged[i])
		}
		if math.Abs(out.Payments[i]) > 1e-9 {
			t.Errorf("req %d paid %v net, want 0", i, out.Payments[i])
		}
		if out.Refunded[i] <= 0 {
			t.Errorf("req %d refunded %v, want positive", i, out.Refunded[i])
		}
	}
	checkRefundConservation(t, c, out)
}

// The true worst case: guarantees stranded and the solver dead, so no
// repair LP can run. Repair settles on the carry rung, which cannot place
// the guarantee either and refunds it instead of reneging: one refund of
// all 10 bytes, conserved.
func TestRepairCarriesWhenSolverDead(t *testing.T) {
	n, a, b := simpleNet()
	reqs := []*traffic.Request{mkReq(n, 0, a, b, 0, 1, 2, 10, 5)}
	cfg := smallConfig(4)
	cfg.Chaos = chaos.Plan{
		chaos.Outage{Edges: []graph.EdgeID{0}, From: 1, To: 2},
		chaos.SolverOutage{Module: chaos.ModuleSAM, From: 0, To: 3},
	}
	c, err := New(n, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireRepairLevel(t, c, LevelCarry)
	if len(c.Refunds) != 1 || c.Refunds[0].Bytes != 10 {
		t.Errorf("refunds = %v, want one of all 10 bytes", c.Refunds)
	}
	if out.Reneged[0] != 0 {
		t.Errorf("reneged %v, want 0: the carry rung refunds what it cannot keep", out.Reneged[0])
	}
	if out.Delivered[0] > 1e-9 {
		t.Errorf("delivered %v through a full cut", out.Delivered[0])
	}
	checkRefundConservation(t, c, out)
}

// A dead solver's repair re-places the stranded guarantee before the
// step's admissions, so an arrival at the cut step is quoted against the
// re-placed plan: the detour the guarantee moved onto is full, the
// arrival is declined, and the guarantee is kept without a refund. Quoted
// against the stranded plan instead, the arrival would take the detour
// and one of the two guarantees would be bought back.
func TestRepairCarryPrecedesAdmissions(t *testing.T) {
	n, a, b, e1, _, _ := twoPathNet()
	reqs := []*traffic.Request{
		mkReq(n, 0, a, b, 0, 1, 1, 10, 5),
		mkReq(n, 1, a, b, 1, 1, 1, 10, 5),
	}
	cfg := smallConfig(3)
	cfg.Chaos = chaos.Plan{
		chaos.Outage{Edges: []graph.EdgeID{e1}, From: 1, To: 1},
		chaos.SolverOutage{Module: chaos.ModuleSAM, From: 0, To: 2},
	}
	c, err := New(n, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	ev := requireRepairLevel(t, c, LevelCarry)
	if ev.Step != 1 {
		t.Errorf("repair at t=%d, want 1", ev.Step)
	}
	if !c.Admitted[0] || c.Admitted[1] {
		t.Errorf("admitted = %v, want only the guarantee sold before the cut", c.Admitted)
	}
	if len(c.Refunds) != 0 {
		t.Errorf("refunds = %v, want none: the detour carries the re-placed guarantee", c.Refunds)
	}
	if math.Abs(out.Delivered[0]-10) > 1e-6 || out.Reneged[0] != 0 {
		t.Errorf("delivered %v reneged %v, want 10 and 0", out.Delivered[0], out.Reneged[0])
	}
}

// A cut that strands nobody (the plan rides the other path) must not
// trigger repair at all.
func TestRepairIdleWhenPlanUnaffected(t *testing.T) {
	n, a, b, e1, e2a, e2b := twoPathNet()
	req := &traffic.Request{
		ID: 0, Src: a, Dst: b, Routes: []graph.Path{{e2a, e2b}},
		Arrival: 0, Start: 1, End: 2, Demand: 10, Value: 5,
	}
	cfg := smallConfig(4)
	cfg.Chaos = chaos.Outage{Edges: []graph.EdgeID{e1}, From: 1, To: 2}
	c, err := New(n, []*traffic.Request{req}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if evs := c.Health.EventsAt(ModuleRepair); len(evs) != 0 {
		t.Errorf("repair fired on an unaffected plan: %v", evs)
	}
	if math.Abs(out.Delivered[0]-10) > 1e-6 {
		t.Errorf("delivered %v, want 10", out.Delivered[0])
	}
}

// An announced maintenance drain gives the planner advance notice: the
// transfer is repaired (or planned) around the drain window and still
// delivers in full without refunds.
func TestRepairAroundAnnouncedDrain(t *testing.T) {
	n, a, b, e1, _, _ := twoPathNet()
	reqs := []*traffic.Request{mkReq(n, 0, a, b, 0, 1, 3, 10, 5)}
	cfg := smallConfig(5)
	cfg.Chaos = chaos.Outage{Edges: []graph.EdgeID{e1}, From: 1, To: 3}
	c, err := New(n, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Delivered[0]-10) > 1e-6 {
		t.Errorf("delivered %v, want 10", out.Delivered[0])
	}
	if out.Reneged[0] > 1e-9 || len(c.Refunds) != 0 {
		t.Errorf("reneged %v refunds %v, want clean repair", out.Reneged[0], c.Refunds)
	}
	for tt := 1; tt <= 3; tt++ {
		if u := out.Usage[e1][tt]; u > 1e-9 {
			t.Errorf("drained edge carried %v at t=%d", u, tt)
		}
	}
}
