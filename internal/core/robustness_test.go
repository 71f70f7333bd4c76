package core

import (
	"math"
	"strings"
	"testing"

	"pretium/internal/chaos"
	"pretium/internal/graph"
	"pretium/internal/sim"
	"pretium/internal/traffic"
)

// TestChaosSAMOutageCompletesViaFallback is the headline robustness
// contract: with the solver forced down at *every* SAM step, the run
// still completes the full horizon, stays capacity-feasible, delivers
// the guaranteed bytes on the carried plan, and records exactly one
// carry-level degradation event per forced failure.
func TestChaosSAMOutageCompletesViaFallback(t *testing.T) {
	n, a, b := simpleNet()
	// 15 guaranteed bytes over 3 steps on a 10-capacity link: physically
	// feasible, but only if the carried plan actually spreads load over
	// time.
	reqs := []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 2, 15, 5)}
	cfg := smallConfig(3)
	cfg.Chaos = chaos.SolverOutage{Module: chaos.ModuleSAM, From: 0, To: 2, Mode: chaos.Fail}
	c, err := New(n, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatalf("Run aborted under chaos: %v", err)
	}
	if math.Abs(out.Delivered[0]-15) > 1e-6 {
		t.Errorf("delivered %v, want 15 (guarantee must survive the carry rung)", out.Delivered[0])
	}
	if out.Reneged[0] > 1e-9 {
		t.Errorf("reneged %v under a physically feasible guarantee", out.Reneged[0])
	}
	if err := sim.CheckCapacities(n, out.Usage, 1e-6); err != nil {
		t.Error(err)
	}
	events := c.Health.EventsAt(ModuleSAM)
	if len(events) == 0 {
		t.Fatal("no SAM degradation events recorded under a forced outage")
	}
	seen := map[int]bool{}
	for _, e := range events {
		if e.Level != LevelCarry {
			t.Errorf("event %v: level %v, want carry-plan", e, e.Level)
		}
		if seen[e.Step] {
			t.Errorf("duplicate degradation event at step %d: want one per forced failure", e.Step)
		}
		seen[e.Step] = true
		if !strings.Contains(e.Reason, "injected solver outage") {
			t.Errorf("event reason %q does not name the injected outage", e.Reason)
		}
	}
}

// TestChaosTimeoutMidHorizon forces a wall-clock timeout (not an outright
// error) at one mid-horizon SAM step: the genuine lp.TimeLimit path runs,
// the ladder descends to carry for that step only, and the run recovers.
func TestChaosTimeoutMidHorizon(t *testing.T) {
	n, a, b := simpleNet()
	reqs := []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 3, 20, 5)}
	cfg := smallConfig(4)
	cfg.Chaos = chaos.SolverOutage{Module: chaos.ModuleSAM, From: 1, To: 1, Mode: chaos.Timeout}
	c, err := New(n, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatalf("Run aborted: %v", err)
	}
	if math.Abs(out.Delivered[0]-20) > 1e-6 {
		t.Errorf("delivered %v, want 20", out.Delivered[0])
	}
	if err := sim.CheckCapacities(n, out.Usage, 1e-6); err != nil {
		t.Error(err)
	}
	events := c.Health.EventsAt(ModuleSAM)
	if len(events) != 1 {
		t.Fatalf("events = %v, want exactly one (at the timed-out step)", events)
	}
	e := events[0]
	if e.Step != 1 || e.Level != LevelCarry {
		t.Errorf("event %v, want carry-plan at step 1", e)
	}
	if !strings.Contains(e.Reason, "time budget") {
		t.Errorf("reason %q should surface the lp time-budget error", e.Reason)
	}
	// The steps around the injection must be healthy.
	for _, w := range []int{0, 2, 3} {
		if c.Health.Worst[w] != LevelOK {
			t.Errorf("step %d degraded (%v) outside the injection window", w, c.Health.Worst[w])
		}
	}
}

// TestChaosPCOutageRetainsPrices forces the Price Computer down at its
// window boundary: the failure must be recorded (not swallowed) and the
// pre-boundary prices must carry forward unchanged.
func TestChaosPCOutageRetainsPrices(t *testing.T) {
	n, a, b := simpleNet()
	// Enough traffic to give the PC history in the first window.
	reqs := []*traffic.Request{
		mkReq(n, 0, a, b, 0, 0, 1, 12, 5),
		mkReq(n, 1, a, b, 2, 2, 3, 12, 5),
	}
	cfg := smallConfig(4)
	cfg.PriceWindow = 2
	cfg.Cost.WindowLen = 2
	cfg.Chaos = chaos.SolverOutage{Module: chaos.ModulePC, From: 0, To: 3, Mode: chaos.Fail}
	c, err := New(n, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatalf("Run aborted: %v", err)
	}
	events := c.Health.EventsAt(ModulePC)
	if len(events) == 0 {
		t.Fatal("PC outage left no health events: failure was swallowed")
	}
	for _, e := range events {
		if e.Level != LevelRetainedPrices {
			t.Errorf("event %v: level %v, want retained-prices", e, e.Level)
		}
	}
	// Prices never recomputed: the trace stays at the seed price.
	for tt := 1; tt < 4; tt++ {
		if c.PriceTrace[0][tt] != c.PriceTrace[0][0] {
			t.Errorf("price moved at t=%d despite a dead PC", tt)
		}
	}
}

// TestUnannouncedFaultWithRateAndScavenger mixes the awkward request
// kinds (per-step rate guarantees, no-guarantee scavenger) with a fault
// the planner only learns about mid-window. The run must complete, stay
// within *faulted* physical capacity, and account honestly: rate bytes
// lost to the unannounced window show up as reneges, and the scavenger
// never displaces them.
func TestUnannouncedFaultWithRateAndScavenger(t *testing.T) {
	n, a, b := simpleNet()
	rate := mkReq(n, 0, a, b, 0, 0, 3, 16, 5)
	rate.Kind = traffic.RateRequest
	rate.Rate = 4
	scav := mkReq(n, 1, a, b, 0, 0, 3, 40, 0.2)
	scav.Kind = traffic.ScavengerRequest
	cfg := smallConfig(4)
	// Half the link gone over [1,2]; the planner hears at t=2, so t=1 is
	// an unannounced fault step (actual high-pri use) and t=2 a cut
	// announced at onset.
	cfg.HighPriActual = silentFault(n, 4, 0, 1, 1, 0.5)
	cfg.Chaos = chaos.Outage{Edges: []graph.EdgeID{0}, From: 2, To: 2, Survive: 0.5}
	c, err := New(n, []*traffic.Request{rate, scav}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatalf("Run aborted: %v", err)
	}
	if err := sim.CheckCapacities(n, out.Usage, 1e-6); err != nil {
		t.Error(err)
	}
	// Realized usage must respect the *faulted* capacity, announced or not.
	for _, tt := range []int{1, 2} {
		if out.Usage[0][tt] > 5+1e-6 {
			t.Errorf("usage %v at faulted step %d exceeds physical capacity 5", out.Usage[0][tt], tt)
		}
	}
	total := out.Delivered[0] + out.Delivered[1]
	if total > 10+5+5+10+1e-6 {
		t.Errorf("total delivered %v exceeds physical volume", total)
	}
	// The rate guarantee admits 4/step; the faulted steps can carry at
	// most 5 total, so the shortfall must be accounted as reneged, not
	// silently dropped.
	if out.Delivered[0] < 8-1e-6 {
		t.Errorf("rate request delivered %v, want >= 8 (healthy steps alone carry 8)", out.Delivered[0])
	}
	if short := 16 - out.Delivered[0]; short > 1e-6 {
		if math.Abs(out.Reneged[0]-short) > 1e-6 {
			t.Errorf("reneged %v, want %v (honest accounting of the fault loss)", out.Reneged[0], short)
		}
	}
}

// TestRateRequestNotAdmittedWithoutCommit: a rate request whose window
// includes a step with zero sellable capacity must be declined outright —
// Admitted may only be set once at least one per-step commit holds.
func TestRateRequestNotAdmittedWithoutCommit(t *testing.T) {
	n, a, b := simpleNet()
	rate := mkReq(n, 0, a, b, 1, 1, 2, 6, 5)
	rate.Kind = traffic.RateRequest
	rate.Rate = 3
	cfg := smallConfig(3)
	c, err := New(n, []*traffic.Request{rate}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Kill all sellable capacity at step 2 before the request arrives:
	// the per-step quote there is empty, so the bundle is infeasible.
	c.state.SetOutage(0, 2, 10)
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.Admitted[0] {
		t.Error("rate request marked admitted with an unsellable step in its window")
	}
	if out.Delivered[0] > 1e-9 {
		t.Errorf("declined request delivered %v", out.Delivered[0])
	}
	if len(c.active) != 0 {
		t.Errorf("declined request left %d active states", len(c.active))
	}
}

// TestCapacityFlapNeverViolatesCapacity drives the planner with a link
// that flaps every step while guaranteed traffic is in flight.
func TestCapacityFlapNeverViolatesCapacity(t *testing.T) {
	n, a, b := simpleNet()
	reqs := []*traffic.Request{
		mkReq(n, 0, a, b, 0, 0, 5, 30, 5),
		mkReq(n, 1, a, b, 1, 1, 4, 10, 3),
	}
	cfg := smallConfig(6)
	cfg.Chaos = chaos.Outage{Edges: []graph.EdgeID{0}, From: 0, To: 5, Survive: 0.4, Period: 1}
	c, err := New(n, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatalf("Run aborted: %v", err)
	}
	if err := sim.CheckCapacities(n, out.Usage, 1e-6); err != nil {
		t.Error(err)
	}
	if out.Delivered[0] <= 0 {
		t.Error("flapping link starved all traffic")
	}
}

// TestHealthSummaryShape sanity-checks the report rendering used by the
// experiment harness.
func TestHealthSummaryShape(t *testing.T) {
	h := newHealth(4)
	if h.Summary() != "healthy" {
		t.Errorf("empty report summary = %q", h.Summary())
	}
	h.record(1, ModuleSAM, LevelCarry, "x")
	h.record(1, ModulePC, LevelRetainedPrices, "y")
	h.record(3, ModuleSAM, LevelRelaxed, "z")
	if !h.Degraded() {
		t.Error("Degraded() = false after events")
	}
	if h.Worst[1] != LevelCarry || h.Worst[3] != LevelRelaxed {
		t.Errorf("Worst = %v", h.Worst)
	}
	want := "degraded 2/4 steps: relaxed-guarantees=1 retained-prices=1 carry-plan=1"
	if h.Summary() != want {
		t.Errorf("Summary = %q, want %q", h.Summary(), want)
	}
	if got := len(h.EventsAt(ModuleSAM)); got != 2 {
		t.Errorf("SAM events = %d, want 2", got)
	}
}
