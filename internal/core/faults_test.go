package core

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pretium/internal/chaos"
	"pretium/internal/graph"
	"pretium/internal/sim"
	"pretium/internal/traffic"
)

func TestScavengerRidesResidualCapacity(t *testing.T) {
	// A scavenger request on an idle network gets its bytes; its payment
	// is the named price per delivered byte.
	n, a, b := simpleNet()
	req := mkReq(n, 0, a, b, 0, 0, 2, 12, 0.5)
	req.Kind = traffic.ScavengerRequest
	c, err := New(n, []*traffic.Request{req}, smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Delivered[0]-12) > 1e-6 {
		t.Errorf("scavenger delivered %v, want 12", out.Delivered[0])
	}
	if math.Abs(out.Payments[0]-0.5*12) > 1e-6 {
		t.Errorf("scavenger paid %v, want 6", out.Payments[0])
	}
	if out.Reneged[0] != 0 {
		t.Errorf("scavenger has no guarantee to renege on: %v", out.Reneged[0])
	}
}

func TestScavengerYieldsToGuaranteed(t *testing.T) {
	// Guaranteed traffic fills the link; a low-priced scavenger gets
	// only what's left (here: nothing at the contested step).
	n, a, b := simpleNet()
	guaranteed := mkReq(n, 0, a, b, 0, 0, 0, 10, 5)
	scav := mkReq(n, 1, a, b, 0, 0, 0, 10, 0.01)
	scav.Kind = traffic.ScavengerRequest
	c, err := New(n, []*traffic.Request{guaranteed, scav}, smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Delivered[0]-10) > 1e-6 {
		t.Errorf("guaranteed delivered %v, want 10", out.Delivered[0])
	}
	if out.Delivered[1] > 1e-6 {
		t.Errorf("scavenger delivered %v on a full link", out.Delivered[1])
	}
	if err := sim.CheckCapacities(n, out.Usage, 1e-6); err != nil {
		t.Error(err)
	}
}

func TestScavengerInertWithoutSAM(t *testing.T) {
	n, a, b := simpleNet()
	req := mkReq(n, 0, a, b, 0, 0, 2, 12, 0.5)
	req.Kind = traffic.ScavengerRequest
	cfg := smallConfig(3)
	cfg.EnableSAM = false
	c, err := New(n, []*traffic.Request{req}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Delivered[0] != 0 {
		t.Errorf("scavenger delivered %v without SAM", out.Delivered[0])
	}
}

// silentFault is the Config.HighPriActual matrix of a capacity loss the
// planner never hears of: edge e keeps fraction survive of its nameplate
// capacity over steps [from, to].
func silentFault(n *graph.Network, horizon int, e graph.EdgeID, from, to int, survive float64) [][]float64 {
	m := uniformHighPri(n, horizon, 0)
	for t := from; t <= to; t++ {
		m[e][t] = n.Edge(e).Capacity * (1 - survive)
	}
	return m
}

func TestAnnouncedFaultRespreadsLoad(t *testing.T) {
	// Request window [0,3]; the single link loses 100% of capacity at
	// steps 1-2, announced at onset. SAM must route everything through
	// steps 0 and 3 and keep the guarantee.
	n, a, b := simpleNet()
	req := mkReq(n, 0, a, b, 0, 0, 3, 20, 5)
	cfg := smallConfig(4)
	cfg.Chaos = chaos.Outage{Edges: []graph.EdgeID{0}, From: 1, To: 2}
	c, err := New(n, []*traffic.Request{req}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Delivered[0]-20) > 1e-6 {
		t.Errorf("delivered %v, want 20 despite fault", out.Delivered[0])
	}
	if out.Usage[0][1] > 1e-9 || out.Usage[0][2] > 1e-9 {
		t.Errorf("traffic crossed a dead link: %v", out.Usage[0])
	}
	if out.Reneged[0] > 1e-9 {
		t.Errorf("reneged %v", out.Reneged[0])
	}
}

// TestAnnouncedLinkCutStrandingGuaranteeIsRefunded: a full cut over
// [1,2], announced at onset, strands part of a 20-byte guarantee over
// [0,2] on a 10-unit link. The repair LP buys it back, so the
// shortfall is a refund, not a renege.
func TestAnnouncedLinkCutStrandingGuaranteeIsRefunded(t *testing.T) {
	n, a, b := simpleNet()
	cfg := smallConfig(3)
	cfg.Chaos = chaos.Outage{Edges: []graph.EdgeID{0}, From: 1, To: 2}
	c, err := New(n, []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 2, 20, 5)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Reneged[0] > 1e-9 {
		t.Errorf("reneged %v bytes, want 0 (refunded instead)", out.Reneged[0])
	}
	if len(c.Refunds) != 1 || c.Refunds[0].Req != 0 {
		t.Errorf("refunds = %+v, want one for request 0", c.Refunds)
	}
	if sum := c.Health.Summary(); !strings.Contains(sum, "repair-") {
		t.Errorf("health %q records no repair rung", sum)
	}
	checkRefundConservation(t, c, out)
}

func TestUnannouncedFaultDropsThenRecovers(t *testing.T) {
	// The fault at step 1 is announced only at step 2, after it ended: the
	// planner never hears of it, so it is actual high-pri use. The step-1
	// plan physically cannot ship, but SAM recovers the loss in steps 2-3.
	n, a, b := simpleNet()
	req := mkReq(n, 0, a, b, 0, 0, 3, 20, 5)
	cfg := smallConfig(4)
	cfg.HighPriActual = silentFault(n, 4, 0, 1, 1, 0)
	c, err := New(n, []*traffic.Request{req}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Usage[0][1] > 1e-9 {
		t.Errorf("bytes shipped over a physically dead link at step 1: %v", out.Usage[0][1])
	}
	if math.Abs(out.Delivered[0]-20) > 1e-6 {
		t.Errorf("delivered %v, want 20 (recovered after announcement)", out.Delivered[0])
	}
}

func TestPartialFaultScalesProportionally(t *testing.T) {
	// Two requests plan 5+5 on a 10-capacity step that silently halves:
	// both should ship ~2.5 at that step.
	n, a, b := simpleNet()
	reqs := []*traffic.Request{
		mkReq(n, 0, a, b, 0, 0, 0, 5, 5),
		mkReq(n, 1, a, b, 0, 0, 0, 5, 5),
	}
	cfg := smallConfig(1)
	cfg.HighPriActual = silentFault(n, 1, 0, 0, 0, 0.5)
	c, err := New(n, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	total := out.Delivered[0] + out.Delivered[1]
	if math.Abs(total-5) > 1e-6 {
		t.Errorf("total delivered %v, want 5 (half the link)", total)
	}
	if math.Abs(out.Delivered[0]-out.Delivered[1]) > 1e-6 {
		t.Errorf("loss not proportional: %v vs %v", out.Delivered[0], out.Delivered[1])
	}
	// Guarantees were broken by the silent fault — must be accounted.
	if out.Reneged[0] < 2.4 || out.Reneged[1] < 2.4 {
		t.Errorf("reneges not recorded: %v %v", out.Reneged[0], out.Reneged[1])
	}
}

// TestFaultValidation: New rejects a chaos plan naming an edge outside
// the network, on its own and inside a Plan, instead of letting the first
// step index past the state.
func TestFaultValidation(t *testing.T) {
	n, a, b := simpleNet()
	reqs := []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 0, 1, 1)}
	for _, e := range []graph.EdgeID{-1, graph.EdgeID(n.NumEdges())} {
		cut := chaos.Outage{Edges: []graph.EdgeID{0, e}, From: 0, To: 0}
		for _, in := range []chaos.Injector{cut, chaos.Plan{chaos.SolverOutage{}, cut}} {
			cfg := smallConfig(1)
			cfg.Chaos = in
			c, err := New(n, reqs, cfg)
			if err == nil {
				t.Errorf("%T on edge %d of %d accepted", in, e, n.NumEdges())
				c.Run() // an unchecked plan panics at its first step
			}
		}
	}
}

// TestNilChaosMemberRejected: a nil member of a chaos Plan, at any depth,
// is refused by New rather than panicking at the first step of Run.
func TestNilChaosMemberRejected(t *testing.T) {
	n, a, b := simpleNet()
	reqs := []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 0, 1, 1)}
	for _, in := range []chaos.Injector{
		chaos.Plan{nil},
		chaos.Plan{chaos.SolverOutage{}, chaos.Plan{chaos.PriceCorruption{}, nil}},
	} {
		cfg := smallConfig(1)
		cfg.Chaos = in
		c, err := New(n, reqs, cfg)
		if err == nil {
			t.Errorf("%+v accepted", in)
			c.Run() // a nil member panics at the first step
		}
	}
}

func TestFaultPreservesOtherEdges(t *testing.T) {
	// Fault on one edge of a diamond: traffic shifts to the other path.
	net := graph.New()
	s := net.AddNode("s", "r")
	x := net.AddNode("x", "r")
	y := net.AddNode("y", "r")
	d := net.AddNode("d", "r")
	sx := net.AddEdge(s, x, 10)
	net.AddEdge(x, d, 10)
	net.AddEdge(s, y, 10)
	net.AddEdge(y, d, 10)
	routes := net.KShortestPaths(s, d, 2)
	req := &traffic.Request{ID: 0, Src: s, Dst: d, Routes: routes, Arrival: 0, Start: 0, End: 1, Demand: 16, Value: 5}
	cfg := smallConfig(2)
	cfg.Chaos = chaos.Outage{Edges: []graph.EdgeID{sx}, From: 0, To: 1}
	c, err := New(net, []*traffic.Request{req}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Delivered[0]-16) > 1e-6 {
		t.Errorf("delivered %v, want 16 via the healthy path", out.Delivered[0])
	}
	if out.Usage[sx][0] > 1e-9 || out.Usage[sx][1] > 1e-9 {
		t.Errorf("traffic on the dead edge: %v", out.Usage[sx])
	}
}

// TestSilentFaultChargesHighPriOnce: a fault the planner never hears of
// removes its share of the nameplate capacity, and high-pri traffic still
// takes its own share out of what is left. On a 10-unit link with 20%
// high-pri and a silent halving, actual high-pri use is 2 + 5, so
// scheduled traffic physically gets 10*0.5 - 2 = 3, not 0.5*(10-2) = 4.
func TestSilentFaultChargesHighPriOnce(t *testing.T) {
	n, a, b := simpleNet()
	req := mkReq(n, 0, a, b, 0, 0, 0, 8, 5)
	cfg := smallConfig(1)
	cfg.HighPriActual = silentFault(n, 1, 0, 0, 0, 0.5)
	cfg.HighPriActual[0][0] += uniformHighPri(n, 1, 0.2)[0][0]
	c, err := New(n, []*traffic.Request{req}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !c.Admitted[0] {
		t.Fatal("the 8-byte guarantee fits the planner's view and must be admitted")
	}
	if math.Abs(out.Delivered[0]-3) > 1e-9 {
		t.Errorf("delivered %v over the silently halved link, want 3", out.Delivered[0])
	}
}

// TestNewLeavesFaultsUntouched: New reads the capacity-loss inputs —
// cfg.HighPriActual and cfg.Chaos — and never writes them, so the
// caller's values keep every field as given.
func TestNewLeavesFaultsUntouched(t *testing.T) {
	n, a, b := simpleNet()
	cfg := smallConfig(4)
	cfg.HighPriActual = silentFault(n, 4, 0, 1, 2, 0.5)
	cfg.Chaos = chaos.Plan{chaos.Outage{Edges: []graph.EdgeID{0}, From: 3, To: 3, Announce: 1}}
	wantActual := silentFault(n, 4, 0, 1, 2, 0.5)
	wantChaos := chaos.Plan{chaos.Outage{Edges: []graph.EdgeID{0}, From: 3, To: 3, Announce: 1}}
	c, err := New(n, []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 3, 20, 5)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg.HighPriActual, wantActual) || !reflect.DeepEqual(cfg.Chaos, wantChaos) {
		t.Errorf("the run rewrote the caller's faults: %v %+v, want %v %+v", cfg.HighPriActual, cfg.Chaos, wantActual, wantChaos)
	}
}

// TestControllersShareConfig builds and runs two controllers from one
// Config at once; under -race any write New or Run makes to the shared
// high-pri matrix or chaos plan is reported. Both runs must also agree.
func TestControllersShareConfig(t *testing.T) {
	n, a, b := simpleNet()
	cfg := smallConfig(4)
	cfg.HighPriActual = silentFault(n, 4, 0, 1, 1, 0.5)
	cfg.Chaos = chaos.Plan{chaos.Outage{Edges: []graph.EdgeID{0}, From: 2, To: 2, Survive: 0.5}}
	var wg sync.WaitGroup
	outs := make([]*sim.Outcome, 2)
	errs := make([]error, 2)
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := New(n, []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 3, 20, 5)}, cfg)
			if err != nil {
				errs[i] = err
				return
			}
			outs[i], errs[i] = c.Run()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(outs[0].Delivered, outs[1].Delivered) || !reflect.DeepEqual(outs[0].Usage, outs[1].Usage) {
		t.Errorf("two runs of one config disagree: %v vs %v", outs[0].Delivered, outs[1].Delivered)
	}
}
