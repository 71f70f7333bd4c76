package core

import (
	"math"
	"strings"
	"testing"

	"pretium/internal/pricing"
	"pretium/internal/sim"
	"pretium/internal/traffic"
)

func TestHighPriEstimateReservesCapacity(t *testing.T) {
	n, a, b := simpleNet()
	est := [][]float64{{6, 0, 0}} // step 0 mostly reserved for high-pri
	reqs := []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 0, 10, 5)}
	cfg := smallConfig(3)
	cfg.HighPriEstimate = est
	c, err := New(n, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Delivered[0] > 4+1e-6 {
		t.Errorf("delivered %v, want <= 4 (high-pri set-aside)", out.Delivered[0])
	}
}

func TestHighPriUnderestimateSqueezesTransfers(t *testing.T) {
	// The planner set nothing aside, but high-pri traffic physically
	// consumes 70% of the link: realized transfers must shrink, and the
	// broken guarantee must be accounted as reneged.
	n, a, b := simpleNet()
	actual := [][]float64{{7}}
	reqs := []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 0, 10, 5)}
	cfg := smallConfig(1)
	cfg.HighPriActual = actual
	c, err := New(n, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Delivered[0]-3) > 1e-6 {
		t.Errorf("delivered %v, want 3 (physical residual)", out.Delivered[0])
	}
	if out.Reneged[0] < 6 {
		t.Errorf("reneged %v, want ~7 (guarantee minus delivery)", out.Reneged[0])
	}
}

func TestHighPriGoodEstimateKeepsGuarantees(t *testing.T) {
	// Estimate == actual: planning already accounts for the loss, so
	// guarantees are honored.
	n, a, b := simpleNet()
	hp := [][]float64{{7, 7}}
	reqs := []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 1, 6, 5)}
	cfg := smallConfig(2)
	cfg.HighPriEstimate = hp
	cfg.HighPriActual = hp
	c, err := New(n, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Delivered[0]-6) > 1e-6 {
		t.Errorf("delivered %v, want 6", out.Delivered[0])
	}
	if out.Reneged[0] > 1e-9 {
		t.Errorf("reneged %v with a correct estimate", out.Reneged[0])
	}
}

func TestHighPriActualValidation(t *testing.T) {
	n, a, b := simpleNet()
	reqs := []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 0, 1, 1)}
	cfg := smallConfig(1)
	cfg.HighPriActual = [][]float64{} // wrong edge count
	if _, err := New(n, reqs, cfg); err == nil {
		t.Error("bad HighPriActual accepted")
	}
	cfg.HighPriActual = make([][]float64, n.NumEdges())
	for e := range cfg.HighPriActual {
		cfg.HighPriActual[e] = make([]float64, cfg.Horizon-1) // one step short
	}
	if _, err := New(n, reqs, cfg); err == nil {
		t.Error("short HighPriActual row accepted")
	}
	for _, v := range []float64{-1, math.NaN(), math.Inf(1)} {
		for e := range cfg.HighPriActual {
			cfg.HighPriActual[e] = make([]float64, cfg.Horizon)
		}
		cfg.HighPriActual[0][cfg.Horizon-1] = v
		if _, err := New(n, reqs, cfg); err == nil {
			t.Errorf("HighPriActual cell %v accepted", v)
		}
	}
}

// TestHighPriEstimateValidation: the planner's set-aside is checked like
// the actual high-pri traffic, so a NaN or negative cell never reaches
// the capacity that quotes and SAM plan on.
func TestHighPriEstimateValidation(t *testing.T) {
	n, a, b := simpleNet()
	reqs := []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 0, 1, 1)}
	cfg := smallConfig(1)
	for _, v := range []float64{math.NaN(), -1, math.Inf(1)} {
		cfg.HighPriEstimate = [][]float64{{v}}
		if _, err := New(n, reqs, cfg); err == nil {
			t.Errorf("HighPriEstimate cell %v accepted", v)
		}
	}
	cfg.HighPriEstimate = [][]float64{{}}
	if _, err := New(n, reqs, cfg); err == nil {
		t.Error("short HighPriEstimate row accepted")
	}
	cfg.HighPriEstimate = [][]float64{{25}} // clamps to the link's 10
	c, err := New(n, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.State().HighPri[0][0]; got != 10 {
		t.Errorf("over-capacity estimate set aside %v, want 10", got)
	}
}

// TestHighPriMatricesShareShapeRule: the planner's set-aside and the
// actual high-pri use obey one shape rule — exactly Horizon steps per
// edge — so each row length gets the same verdict for both matrices, and
// each rejection names its matrix.
func TestHighPriMatricesShareShapeRule(t *testing.T) {
	n, a, b := simpleNet()
	reqs := []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 0, 1, 1)}
	const horizon = 3
	for _, steps := range []int{horizon - 1, horizon, horizon + 1} {
		m := make([][]float64, n.NumEdges())
		for e := range m {
			m[e] = make([]float64, steps)
		}
		estimate, actual := smallConfig(horizon), smallConfig(horizon)
		estimate.HighPriEstimate, actual.HighPriActual = m, m
		for name, cfg := range map[string]Config{"HighPriEstimate": estimate, "HighPriActual": actual} {
			_, err := New(n, reqs, cfg)
			if (err == nil) != (steps == horizon) || (err != nil && !strings.Contains(err.Error(), name)) {
				t.Errorf("%s rows of %d steps over horizon %d: err = %v", name, steps, horizon, err)
			}
		}
	}
}

func TestEstimateHighPriSetAside(t *testing.T) {
	// Two days, two steps per day; hour 0 loads {2, 4}, hour 1 loads
	// {10, 10}.
	observed := [][]float64{{2, 10, 4, 10}}
	got, err := pricing.EstimateHighPriSetAside(observed, 2, 95, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0]) != 6 {
		t.Fatalf("horizon = %d", len(got[0]))
	}
	// p95 of {2,4} = 3.9; p95 of {10,10} = 10; tiled over 6 steps.
	want := []float64{3.9, 10, 3.9, 10, 3.9, 10}
	for i, w := range want {
		if math.Abs(got[0][i]-w) > 1e-9 {
			t.Errorf("step %d = %v, want %v", i, got[0][i], w)
		}
	}
	if _, err := pricing.EstimateHighPriSetAside(observed, 0, 95, 6); err == nil {
		t.Error("stepsPerDay 0 accepted")
	}
	if _, err := pricing.EstimateHighPriSetAside(observed, 2, 101, 6); err == nil {
		t.Error("percentile 101 accepted")
	}
	// Empty series row stays zero.
	got2, err := pricing.EstimateHighPriSetAside([][]float64{nil}, 2, 95, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range got2[0] {
		if v != 0 {
			t.Error("empty history produced a set-aside")
		}
	}
}

func TestCustomerRateCapLimitsElephant(t *testing.T) {
	// An elephant wants the whole link for two steps; with a rate cap of
	// 3 it gets at most 3 per step, leaving room for the mouse.
	n, a, b := simpleNet()
	elephant := mkReq(n, 0, a, b, 0, 0, 1, 20, 50)
	mouse := mkReq(n, 1, a, b, 0, 0, 1, 4, 5)
	cfg := smallConfig(2)
	cfg.CustomerRateCap = 3
	c, err := New(n, []*traffic.Request{elephant, mouse}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Delivered[0] > 6+1e-6 {
		t.Errorf("elephant got %v, cap allows 6", out.Delivered[0])
	}
	if math.Abs(out.Delivered[1]-4) > 1e-6 {
		t.Errorf("mouse got %v, want 4", out.Delivered[1])
	}
	// Per-step enforcement, not just aggregate.
	for tt := 0; tt < 2; tt++ {
		if elephantShare(out, tt) > 3+1e-6 {
			t.Errorf("elephant used %v at step %d, cap 3", elephantShare(out, tt), tt)
		}
	}
}

// elephantShare sums delivery events of request 0 at step t.
func elephantShare(out interface {
	DeliveredBy(i, t int) float64
}, t int) float64 {
	return out.DeliveredBy(0, t) - out.DeliveredBy(0, t-1)
}

func TestCustomerRateCapUnsetIsUnlimited(t *testing.T) {
	n, a, b := simpleNet()
	req := mkReq(n, 0, a, b, 0, 0, 0, 10, 5)
	cfg := smallConfig(1)
	c, err := New(n, []*traffic.Request{req}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Delivered[0]-10) > 1e-6 {
		t.Errorf("delivered %v without a cap, want 10", out.Delivered[0])
	}
}

// runCapped runs req alone for three steps on the 10-unit link under a
// rate cap of 2 with the given purchase rule.
func runCapped(t *testing.T, req *traffic.Request, purchase func(*pricing.Menu, *traffic.Request) float64) *sim.Outcome {
	t.Helper()
	n, _, _ := simpleNet()
	cfg := smallConfig(3)
	cfg.CustomerRateCap = 2
	cfg.Purchase = purchase
	c, err := New(n, []*traffic.Request{req}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < 3; tt++ {
		if out.Usage[0][tt] > 2+1e-9 {
			t.Errorf("step %d carried %v, cap 2", tt, out.Usage[0][tt])
		}
	}
	return out
}

// TestNoMenuRespectsRateCap: the all-or-nothing customer is offered the
// rate-capped menu like every other. A 15-byte demand cannot fit 2 per
// step over 3 steps, so it is declined instead of sold as a guarantee SAM
// cannot schedule (and reneged at the end); a 6-byte one still fits.
func TestNoMenuRespectsRateCap(t *testing.T) {
	n, a, b := simpleNet()
	for _, tc := range []struct{ demand, want float64 }{{15, 0}, {6, 6}} {
		out := runCapped(t, mkReq(n, 0, a, b, 0, 0, 2, tc.demand, 5), AllOrNothing)
		if out.Reneged[0] != 0 || math.Abs(out.Delivered[0]-tc.want) > 1e-6 {
			t.Errorf("demand %v: delivered %v, reneged %v; want %v and 0",
				tc.demand, out.Delivered[0], out.Reneged[0], tc.want)
		}
	}
}

// TestRateRequestRespectsRateCap: a rate request above the cap is sold
// the cap per step, not its asking rate, so every sold step is delivered.
func TestRateRequestRespectsRateCap(t *testing.T) {
	n, a, b := simpleNet()
	req := mkReq(n, 0, a, b, 0, 0, 2, 15, 5)
	req.Kind, req.Rate = traffic.RateRequest, 5
	out := runCapped(t, req, nil)
	if out.Reneged[0] != 0 || math.Abs(out.Delivered[0]-6) > 1e-6 {
		t.Errorf("delivered %v, reneged %v; want 6 (2 per step) and 0", out.Delivered[0], out.Reneged[0])
	}
}
