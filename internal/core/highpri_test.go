package core

import (
	"math"
	"strings"
	"testing"

	"pretium/internal/pricing"
	"pretium/internal/traffic"
)

func TestHighPriUnderestimateSqueezesTransfers(t *testing.T) {
	// The planner never sees it, but high-pri traffic physically
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

// TestHighPriMatricesShareShapeRule: the actual high-pri use obeys
// pricing.CheckHighPriMatrix, the one shape rule for a high-pri matrix —
// exactly Horizon steps per edge — so New gives each row length the
// rule's verdict, and its rejection names the matrix.
func TestHighPriMatricesShareShapeRule(t *testing.T) {
	n, a, b := simpleNet()
	reqs := []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 0, 1, 1)}
	const horizon = 3
	for _, steps := range []int{horizon - 1, horizon, horizon + 1} {
		m := make([][]float64, n.NumEdges())
		for e := range m {
			m[e] = make([]float64, steps)
		}
		cfg := smallConfig(horizon)
		cfg.HighPriActual = m
		_, err := New(n, reqs, cfg)
		rule := pricing.CheckHighPriMatrix(m, n.NumEdges(), horizon)
		if (err == nil) != (rule == nil) || (err != nil && !strings.Contains(err.Error(), "HighPriActual")) {
			t.Errorf("rows of %d steps over horizon %d: New err = %v, rule err = %v", steps, horizon, err, rule)
		}
	}
}
