package sim

import (
	"math"
	"testing"

	"pretium/internal/cost"
	"pretium/internal/graph"
	"pretium/internal/traffic"
)

func net2() *graph.Network {
	n := graph.New()
	a := n.AddNode("a", "r")
	b := n.AddNode("b", "r")
	e := n.AddEdge(a, b, 10)
	n.SetUsagePriced(e, 1)
	return n
}

func TestNewOutcomeShape(t *testing.T) {
	n := net2()
	o := NewOutcome(3, n, 5)
	if len(o.Delivered) != 3 || len(o.Payments) != 3 || len(o.Reneged) != 3 {
		t.Fatal("per-request slices wrong size")
	}
	if len(o.Usage) != n.NumEdges() || len(o.Usage[0]) != 5 {
		t.Fatal("usage matrix wrong size")
	}
}

func TestEvaluate(t *testing.T) {
	n := net2()
	reqs := []*traffic.Request{
		{ID: 0, Demand: 10, Value: 2},
		{ID: 1, Demand: 10, Value: 3},
	}
	o := NewOutcome(2, n, 4)
	o.Delivered[0] = 10 // complete
	o.Delivered[1] = 5  // partial
	o.Payments[0] = 8
	o.Payments[1] = 4
	o.Reneged[1] = 1
	o.Usage[0] = []float64{4, 4, 4, 4}
	ccfg := cost.DefaultConfig(4)
	rep, err := Evaluate(n, reqs, o, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Value-(2*10+3*5)) > 1e-9 {
		t.Errorf("value = %v", rep.Value)
	}
	// 95th percentile of flat 4s = 4, C_e = 1.
	if math.Abs(rep.Cost-4) > 1e-9 {
		t.Errorf("cost = %v", rep.Cost)
	}
	if math.Abs(rep.Welfare-(35-4)) > 1e-9 {
		t.Errorf("welfare = %v", rep.Welfare)
	}
	if math.Abs(rep.Revenue-12) > 1e-9 || math.Abs(rep.Profit-8) > 1e-9 {
		t.Errorf("revenue %v profit %v", rep.Revenue, rep.Profit)
	}
	if rep.Completed != 1 || math.Abs(rep.CompletionFrac-0.5) > 1e-9 {
		t.Errorf("completion %d %v", rep.Completed, rep.CompletionFrac)
	}
	if rep.RenegedBytes != 1 {
		t.Errorf("reneged = %v", rep.RenegedBytes)
	}
}

func TestEvaluateSizeMismatch(t *testing.T) {
	n := net2()
	o := NewOutcome(1, n, 2)
	if _, err := Evaluate(n, nil, o, cost.DefaultConfig(2)); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestEvaluateRejectsBadPercentile(t *testing.T) {
	n := net2()
	o := NewOutcome(0, n, 2)
	cfg := cost.DefaultConfig(2)
	cfg.Percentile = math.NaN()
	if _, err := Evaluate(n, nil, o, cfg); err == nil {
		t.Error("NaN percentile accepted")
	}
}

func TestUtilization90thCDF(t *testing.T) {
	n := net2()
	usage := [][]float64{{0, 5, 10, 5}}
	c := Utilization90thCDF(n, usage)
	// p90 of [0,5,10,5] = 8.5; capacity 10 -> 0.85, the one link's sample.
	if got := c.Quantile(1); math.Abs(got-0.85) > 1e-9 {
		t.Errorf("p90 util = %v, want 0.85", got)
	}
	if c.At(0.84) != 0 || c.At(0.86) != 1 {
		t.Errorf("CDF steps at %v and %v, want one sample at 0.85", c.At(0.84), c.At(0.86))
	}
}

func TestCheckCapacities(t *testing.T) {
	n := net2()
	if err := CheckCapacities(n, [][]float64{{10, 10}}, 1e-9); err != nil {
		t.Errorf("at-capacity flagged: %v", err)
	}
	if err := CheckCapacities(n, [][]float64{{10.5, 0}}, 1e-9); err == nil {
		t.Error("overload not flagged")
	}
}
