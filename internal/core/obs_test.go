package core

import (
	"math"
	"strings"
	"testing"

	"pretium/internal/chaos"
	"pretium/internal/obs"
	"pretium/internal/traffic"
)

// TestControllerObsNeutralAndCounted runs the same tiny scenario with and
// without a recorder and checks (a) observability does not change the
// outcome, (b) the trace carries the expected RA/SAM events, and (c) the
// metrics registry ends up with plausible counts, including the published
// lp solver telemetry.
func TestControllerObsNeutralAndCounted(t *testing.T) {
	// Baseline without obs.
	nBase, aBase, bBase := simpleNet()
	base := []*traffic.Request{
		mkReq(nBase, 0, aBase, bBase, 0, 0, 2, 15, 5),
		mkReq(nBase, 1, aBase, bBase, 1, 1, 3, 8, 0.0001),
	}
	cBase, err := New(nBase, base, smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	outBase, err := cBase.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Observed run of the identical scenario.
	nObs, aObs, bObs := simpleNet()
	observed := []*traffic.Request{
		mkReq(nObs, 0, aObs, bObs, 0, 0, 2, 15, 5),
		mkReq(nObs, 1, aObs, bObs, 1, 1, 3, 8, 0.0001),
	}
	rec, buf := obs.NewTraceRecorder()
	cfg := smallConfig(4)
	cfg.Obs = rec
	cObs, err := New(nObs, observed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	outObs, err := cObs.Run()
	if err != nil {
		t.Fatal(err)
	}

	for i := range outBase.Delivered {
		if math.Abs(outBase.Delivered[i]-outObs.Delivered[i]) > 1e-12 {
			t.Fatalf("obs changed delivery for req %d: %v vs %v", i, outBase.Delivered[i], outObs.Delivered[i])
		}
		if math.Abs(outBase.Payments[i]-outObs.Payments[i]) > 1e-12 {
			t.Fatalf("obs changed payment for req %d: %v vs %v", i, outBase.Payments[i], outObs.Payments[i])
		}
	}

	trace := buf.String()
	for _, want := range []string{`"mod":"RA","ev":"admit"`, `"mod":"RA","ev":"decline"`, `"mod":"SAM","ev":"solve"`} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace missing %s:\n%s", want, trace)
		}
	}

	m := rec.Metrics()
	if got := m.Counter("ra.requests").Value(); got != 2 {
		t.Errorf("ra.requests = %d, want 2", got)
	}
	if got := m.Counter("ra.admitted").Value(); got != 1 {
		t.Errorf("ra.admitted = %d, want 1", got)
	}
	if got := m.Counter("ra.declined").Value(); got != 1 {
		t.Errorf("ra.declined = %d, want 1", got)
	}
	if got := m.Counter("sam.solves").Value(); got < 1 {
		t.Errorf("sam.solves = %d, want >= 1", got)
	}
	if got := m.Counter("quoter.quotes").Value(); got < 2 {
		t.Errorf("quoter.quotes = %d, want >= 2", got)
	}
	if got := m.Counter("sam.lp.solves").Value(); got < 1 {
		t.Errorf("sam.lp.solves = %d, want >= 1", got)
	}
	if got := m.Counter("sam.lp.iterations").Value(); got < 1 {
		t.Errorf("sam.lp.iterations = %d, want >= 1", got)
	}
	// The per-phase solver clocks publish alongside the counts: any run
	// with pivots must have spent measurable time pricing and in FTRAN.
	if got := m.Counter("sam.lp.pricing_ns").Value(); got < 1 {
		t.Errorf("sam.lp.pricing_ns = %d, want >= 1", got)
	}
	if got := m.Counter("sam.lp.ftran_ns").Value(); got < 1 {
		t.Errorf("sam.lp.ftran_ns = %d, want >= 1", got)
	}
}

// TestWarmStartCounted forces the ladder's relax rung — silent high-pri
// use takes 8 of the link's 10 units at step 0, so the 30-byte guarantee
// over [0,2] falls short by more than the later steps can carry; SAM
// relaxes it in place and re-solves warm from the infeasible solve's
// phase-1 terminal basis — and checks the warm start lands in the
// published solver telemetry. (Every other SAM-site solve builds its
// model fresh and solves it cold, so the relax re-solve is the only warm
// start in core. An announced cut would go to the repair ladder first.)
func TestWarmStartCounted(t *testing.T) {
	n, a, b := simpleNet()
	reqs := []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 2, 30, 50)}
	rec := obs.NewRecorder(nil)
	cfg := smallConfig(3)
	cfg.Obs = rec
	cfg.HighPriActual = uniformHighPri(n, 3, 0)
	cfg.HighPriActual[0][0] = 8
	c, err := New(n, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.Health.Summary(), "relaxed-guarantees") {
		t.Fatalf("expected a relaxed-guarantees degradation, health: %s", c.Health.Summary())
	}
	if got := rec.Metrics().Counter("sam.lp.warm_starts").Value(); got != 2 {
		t.Errorf("sam.lp.warm_starts = %d, want 2 via the relax rung", got)
	}
	// The guarantee rows are ≥ rows with a positive right-hand side: every
	// cold solve starts them on artificials, and nothing here needed the
	// singular-refactorization safety net.
	if got := rec.Metrics().Counter("sam.lp.artificials").Value(); got != 3 {
		t.Errorf("sam.lp.artificials = %d, want 3 from the cold solves' guarantee rows", got)
	}
	if got := rec.Metrics().Counter("sam.lp.recoveries").Value(); got != 0 {
		t.Errorf("sam.lp.recoveries = %d on a healthy run", got)
	}
}

// TestDegradeEventsMirrorHealth checks the trace carries a degrade event
// whenever Health records one (forced here by a SAM solver outage that
// times out every LP attempt).
func TestDegradeEventsMirrorHealth(t *testing.T) {
	n, a, b := simpleNet()
	reqs := []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 2, 15, 5)}
	rec, buf := obs.NewTraceRecorder()
	cfg := smallConfig(3)
	cfg.Obs = rec
	// Every LP attempt dies; the ladder lands on carry.
	cfg.Chaos = chaos.SolverOutage{Module: chaos.ModuleSAM, From: 0, To: 2, Mode: chaos.Timeout}
	c, err := New(n, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !c.Health.Degraded() {
		t.Fatalf("expected degradations under a SAM solver outage")
	}
	if !strings.Contains(buf.String(), `"ev":"degrade"`) {
		t.Fatalf("trace has no degrade events:\n%s", buf.String())
	}
	if got := rec.Metrics().Counter("sam.degraded").Value(); got < 1 {
		t.Errorf("sam.degraded = %d, want >= 1", got)
	}
}
