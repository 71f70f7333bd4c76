package core

import (
	"math"
	"strings"
	"testing"

	"pretium/internal/chaos"
	"pretium/internal/graph"
	"pretium/internal/sched"
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

// Rung 1: a cut link with a parallel path — the affected transfer is
// re-routed, the guarantee survives, and nobody is refunded.
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
	requireRepairLevel(t, c, LevelRepairReroute)
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

// Rung 2: pinned re-routing is infeasible (the rigid transfer's only
// slot is occupied by a flexible one), but a joint re-plan that moves
// the flexible transfer repairs both guarantees.
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

// Rung 3: a partial cut leaves room for only one guarantee — the
// cheaper one is preempted and refunded in full, the survivor delivers.
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
// repair can run. The skip is recorded (never silent) and the shortfall
// surfaces as reneges, not refunds.
func TestRepairSkippedWhenSolverDead(t *testing.T) {
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
	requireRepairLevel(t, c, LevelRepairSkipped)
	if len(c.Refunds) != 0 {
		t.Errorf("refunds = %v, want none (repair never ran)", c.Refunds)
	}
	if out.Reneged[0] < 10-1e-6 {
		t.Errorf("reneged %v, want the full stranded guarantee", out.Reneged[0])
	}
	if out.Delivered[0] > 1e-9 {
		t.Errorf("delivered %v through a full cut", out.Delivered[0])
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

// preemptRelaxed extends the repair ladder into the SAM site: if SAM
// settles at relaxed-guarantees while an outage is active, the shorted
// guarantees are bought back instead of reneged. With correct
// reservation accounting the control loop should never manufacture that
// shortfall on its own (repair keeps step t reserved, so same-step
// admissions cannot double-book surviving plans), which makes this pass
// defense-in-depth — so its contract is pinned directly: shorted
// guarantees are preempted cheapest-first, refunded in full for
// undelivered bytes, and the strict re-solve covers every survivor.
func TestPreemptRelaxedBuysBackShortfall(t *testing.T) {
	n, a, b := simpleNet()
	reqs := []*traffic.Request{
		mkReq(n, 0, a, b, 0, 1, 2, 8, 5),
		mkReq(n, 1, a, b, 0, 1, 2, 8, 5),
	}
	c, err := New(n, reqs, smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	c.admit(reqs[0])
	c.admit(reqs[1])
	if len(c.active) != 2 {
		t.Fatalf("admitted %d of 2 requests", len(c.active))
	}
	live := append([]*admState(nil), c.active...)

	// A relaxed plan that covers everyone is not a shortfall: no-op.
	full := &sched.Result{Allocs: []sched.Alloc{
		{DemandIdx: 0, RouteIdx: 0, Time: 1, Bytes: live[0].guaranteeLeft()},
		{DemandIdx: 1, RouteIdx: 0, Time: 1, Bytes: live[1].guaranteeLeft()},
	}}
	if res, surv := c.preemptRelaxed(1, 4, live, full); res != nil || surv != nil {
		t.Fatalf("full-coverage relaxed plan triggered preemption: %v", res)
	}
	if len(c.Refunds) != 0 {
		t.Fatalf("refunds after no-op pass: %+v", c.Refunds)
	}

	// Short demand 1: it must be preempted, refunded in full (nothing
	// delivered), and the strict re-solve must cover the survivor.
	relaxed := &sched.Result{Allocs: []sched.Alloc{
		{DemandIdx: 0, RouteIdx: 0, Time: 1, Bytes: live[0].guaranteeLeft()},
		{DemandIdx: 1, RouteIdx: 0, Time: 1, Bytes: 2},
	}}
	strict, survivors := c.preemptRelaxed(1, 4, live, relaxed)
	if strict == nil {
		t.Fatal("buy-back pass kept the relaxed plan despite a schedulable survivor set")
	}
	if len(survivors) != 1 || survivors[0] != live[0] {
		t.Fatalf("survivors = %v, want exactly the unshorted demand", survivors)
	}
	if !live[1].preempted || live[0].preempted {
		t.Fatalf("preempted flags = %v/%v, want shorted demand only", live[0].preempted, live[1].preempted)
	}
	if len(c.Refunds) != 1 {
		t.Fatalf("refunds = %d, want 1: %+v", len(c.Refunds), c.Refunds)
	}
	r := c.Refunds[0]
	if r.Req != 1 || r.Bytes != r.Bought || math.Abs(r.Amount-r.Paid) > 1e-9 {
		t.Errorf("nothing was delivered, want full refund of request 1: %+v", r)
	}
	covered := 0.0
	for _, al := range strict.Allocs {
		if al.DemandIdx == 0 { // index into the survivor set
			covered += al.Bytes
		}
	}
	if covered < live[0].guaranteeLeft()-1e-6 {
		t.Errorf("strict re-solve covers %v of the survivor's %v guarantee", covered, live[0].guaranteeLeft())
	}
	ev := requireRepairLevel(t, c, LevelRepairPreempt)
	if want := "relaxed under outage"; !strings.Contains(ev.Reason, want) {
		t.Errorf("repair reason %q does not mention %q", ev.Reason, want)
	}
}

// On solver trouble the buy-back pass must defer every side effect:
// nothing preempted, nothing refunded, the caller keeps the relaxed plan
// and its honest, accounted reneges.
func TestPreemptRelaxedDefersSideEffectsOnSolverOutage(t *testing.T) {
	n, a, b := simpleNet()
	reqs := []*traffic.Request{
		mkReq(n, 0, a, b, 0, 1, 2, 8, 5),
		mkReq(n, 1, a, b, 0, 1, 2, 8, 5),
	}
	cfg := smallConfig(4)
	cfg.Chaos = chaos.SolverOutage{Module: chaos.ModuleSAM, From: 0, To: 3}
	c, err := New(n, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.admit(reqs[0])
	c.admit(reqs[1])
	live := append([]*admState(nil), c.active...)
	relaxed := &sched.Result{Allocs: []sched.Alloc{
		{DemandIdx: 0, RouteIdx: 0, Time: 1, Bytes: live[0].guaranteeLeft()},
	}}
	strict, survivors := c.preemptRelaxed(1, 4, live, relaxed)
	if strict != nil || survivors != nil {
		t.Fatalf("dead solver produced a strict plan: %v", strict)
	}
	if len(c.Refunds) != 0 || live[0].preempted || live[1].preempted {
		t.Errorf("side effects leaked on solver trouble: refunds=%+v preempted=%v/%v",
			c.Refunds, live[0].preempted, live[1].preempted)
	}
	if evs := c.Health.EventsAt(ModuleRepair); len(evs) != 0 {
		t.Errorf("repair events on an aborted buy-back: %v", evs)
	}
}
