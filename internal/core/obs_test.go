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

// TestSAMRefundsInfeasibleGuarantee forces SAM's second rung — silent
// high-pri use takes 8 of the link's 10 units at step 0, so the 30-byte
// guarantee over [0,2] falls short by more than the later steps can
// carry. The step's LP comes back infeasible, and the priced re-solve
// (keepOrRefund) refunds the guarantee instead of reneging on it: one
// refund of the 28 undelivered bytes, 16.8 of the 18 paid. Both solves
// are cold: the controller never warm-starts.
func TestSAMRefundsInfeasibleGuarantee(t *testing.T) {
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
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	evs := c.Health.EventsAt(ModuleSAM)
	if len(evs) != 1 || evs[0].Level != LevelRepairPreempt {
		t.Fatalf("SAM events %v, want one at repair-preempt", evs)
	}
	if len(c.Refunds) != 1 {
		t.Fatalf("refunds = %v, want one", c.Refunds)
	}
	if r := c.Refunds[0]; math.Abs(r.Bytes-28) > 1e-6 || math.Abs(r.Amount-16.8) > 1e-6 || r.Paid != 18 {
		t.Errorf("refund %+v, want 28 bytes and 16.8 of 18 paid", r)
	}
	if out.Reneged[0] != 0 {
		t.Errorf("reneged %v, want 0: the shortfall is refunded", out.Reneged[0])
	}
	checkRefundConservation(t, c, out)
	if got := rec.Metrics().Counter("sam.lp.warm_starts").Value(); got != 0 {
		t.Errorf("sam.lp.warm_starts = %d, want 0", got)
	}
	if got := rec.Metrics().Counter("sam.repair_solves").Value(); got != 1 {
		t.Errorf("sam.repair_solves = %d, want 1 priced LP", got)
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
// fails every LP attempt).
func TestDegradeEventsMirrorHealth(t *testing.T) {
	n, a, b := simpleNet()
	reqs := []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 2, 15, 5)}
	rec, buf := obs.NewTraceRecorder()
	cfg := smallConfig(3)
	cfg.Obs = rec
	// Every LP attempt dies; the ladder lands on carry.
	cfg.Chaos = chaos.SolverOutage{Module: chaos.ModuleSAM, From: 0, To: 2}
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
