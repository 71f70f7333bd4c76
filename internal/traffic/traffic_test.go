package traffic

import (
	"math"
	"testing"

	"pretium/internal/graph"
	"pretium/internal/stats"
)

func testNet() *graph.Network {
	return graph.GenerateWAN(graph.DefaultWANConfig())
}

func TestKindString(t *testing.T) {
	if ByteRequest.String() != "byte" || RateRequest.String() != "rate" {
		t.Error("kind strings wrong")
	}
}

func TestRequestWindow(t *testing.T) {
	r := Request{Start: 3, End: 5}
	if r.Window() != 3 {
		t.Errorf("Window = %d, want 3", r.Window())
	}
}

func TestRequestValidate(t *testing.T) {
	n := testNet()
	src, dst := graph.NodeID(0), graph.NodeID(5)
	routes := n.KShortestPaths(src, dst, 2)
	good := &Request{ID: 1, Src: src, Dst: dst, Routes: routes, Arrival: 0, Start: 1, End: 3, Demand: 5, Value: 2}
	if err := good.Validate(n); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	bad := *good
	bad.Start, bad.End = 4, 3
	if (&bad).Validate(n) == nil {
		t.Error("start > end accepted")
	}
	bad = *good
	bad.Arrival = 2
	if (&bad).Validate(n) == nil {
		t.Error("arrival after start accepted")
	}
	bad = *good
	bad.Demand = -1
	if (&bad).Validate(n) == nil {
		t.Error("negative demand accepted")
	}
	bad = *good
	bad.Routes = nil
	if (&bad).Validate(n) == nil {
		t.Error("empty route set accepted")
	}
	bad = *good
	bad.Src = dst // routes no longer start at src
	if (&bad).Validate(n) == nil {
		t.Error("mismatched route accepted")
	}
	bad = *good
	bad.Kind = RateRequest
	bad.Rate = 0
	if (&bad).Validate(n) == nil {
		t.Error("zero-rate rate request accepted")
	}
	// A NaN value buys the whole menu (no price exceeds it), and a NaN or
	// infinite demand or rate poisons every LP row it enters.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, field := range []*float64{&bad.Demand, &bad.Value, &bad.Rate} {
			bad = *good
			bad.Kind = RateRequest
			bad.Rate = 1
			*field = v
			if (&bad).Validate(n) == nil {
				t.Errorf("request with demand %v, value %v, rate %v accepted", bad.Demand, bad.Value, bad.Rate)
			}
		}
	}
}

// A window that starts before step 0 would index before its edge's row
// in every per-(edge, step) array; with Arrival <= Start, rejecting a
// negative arrival rejects it.
func TestRequestValidateRejectsNegativeStart(t *testing.T) {
	n := testNet()
	src, dst := graph.NodeID(0), graph.NodeID(5)
	r := &Request{ID: 1, Src: src, Dst: dst, Routes: n.KShortestPaths(src, dst, 2),
		Arrival: -1, Start: -1, End: 2, Demand: 5, Value: 2}
	if r.Validate(n) == nil {
		t.Fatal("request arriving and starting at step -1 accepted")
	}
}

func TestMatrixOps(t *testing.T) {
	m := NewMatrix(3)
	m.Demand[0][1] = 2
	m.Demand[1][2] = 3
	if m.Total() != 5 {
		t.Errorf("Total = %v", m.Total())
	}
	m.Scale(2)
	if m.Total() != 10 {
		t.Errorf("after scale Total = %v", m.Total())
	}
	s := Series{m}
	s.Scale(0.5)
	if m.Total() != 5 {
		t.Errorf("series scale Total = %v", m.Total())
	}
}

func TestGenerateShape(t *testing.T) {
	n := testNet()
	cfg := DefaultGenConfig(48)
	s := Generate(n, cfg)
	if len(s) != 48 {
		t.Fatalf("series length = %d", len(s))
	}
	total := 0.0
	for _, m := range s {
		if len(m.Demand) != n.NumNodes() {
			t.Fatalf("matrix size mismatch")
		}
		for i, row := range m.Demand {
			for j, v := range row {
				if v < 0 || math.IsNaN(v) {
					t.Fatalf("bad demand %v at %d->%d", v, i, j)
				}
				if i == j && v != 0 {
					t.Fatalf("self-demand at node %d", i)
				}
			}
		}
		total += m.Total()
	}
	if total <= 0 {
		t.Fatal("generator produced no traffic")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	n := testNet()
	cfg := DefaultGenConfig(24)
	a, b := Generate(n, cfg), Generate(n, cfg)
	for t2 := range a {
		for i := range a[t2].Demand {
			for j := range a[t2].Demand[i] {
				if a[t2].Demand[i][j] != b[t2].Demand[i][j] {
					t.Fatalf("nondeterministic at t=%d %d->%d", t2, i, j)
				}
			}
		}
	}
	cfg.Seed = 999
	c := Generate(n, cfg)
	same := true
	for t2 := range a {
		for i := range a[t2].Demand {
			for j := range a[t2].Demand[i] {
				if a[t2].Demand[i][j] != c[t2].Demand[i][j] {
					same = false
				}
			}
		}
	}
	if same {
		t.Error("different seeds gave identical series")
	}
}

// TestFigure1Heterogeneity checks the generator is calibrated to the
// paper's Figure 1: the 90th/10th percentile utilization ratio exceeds 5
// for more than 10% of links while most links stay under a small ratio.
func TestFigure1Heterogeneity(t *testing.T) {
	n := testNet()
	cfg := DefaultGenConfig(24 * 7)
	s := Generate(n, cfg)
	usage := LinkUtilization(n, s)
	var ratios []float64
	for _, series := range usage {
		p90, err1 := stats.Percentile(series, 90)
		p10, err2 := stats.Percentile(series, 10)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if p10 <= 0 {
			continue
		}
		ratios = append(ratios, p90/p10)
	}
	if len(ratios) == 0 {
		t.Fatal("no utilized links")
	}
	over5 := 0
	for _, r := range ratios {
		if r > 5 {
			over5++
		}
	}
	frac := float64(over5) / float64(len(ratios))
	if frac < 0.05 {
		t.Errorf("only %.0f%% of links have ratio > 5; want the heavy tail of Figure 1", frac*100)
	}
	if frac > 0.7 {
		t.Errorf("%.0f%% of links have ratio > 5; heterogeneity implausibly high", frac*100)
	}
}

func TestLinkUtilizationConservesVolume(t *testing.T) {
	// On a chain a->b->c, demand a->c loads both edges.
	n := graph.New()
	a := n.AddNode("a", "r")
	b := n.AddNode("b", "r")
	c := n.AddNode("c", "r")
	e1 := n.AddEdge(a, b, 10)
	e2 := n.AddEdge(b, c, 10)
	m := NewMatrix(3)
	m.Demand[a][c] = 4
	usage := LinkUtilization(n, Series{m})
	if usage[e1][0] != 4 || usage[e2][0] != 4 {
		t.Errorf("usage = %v", usage)
	}
}

func TestSynthesizeBasics(t *testing.T) {
	n := testNet()
	s := Generate(n, DefaultGenConfig(24))
	cfg := DefaultRequestConfig()
	reqs := Synthesize(n, s, cfg)
	if len(reqs) == 0 {
		t.Fatal("no requests synthesized")
	}
	horizon := len(s)
	var totalDemand float64
	for i, r := range reqs {
		if err := r.Validate(n); err != nil {
			t.Fatalf("request %d invalid: %v", i, err)
		}
		if r.End >= horizon {
			t.Fatalf("request %d deadline %d beyond horizon", i, r.End)
		}
		if r.Value <= 0 {
			t.Fatalf("request %d nonpositive value", i)
		}
		if i > 0 && reqs[i-1].Arrival > r.Arrival {
			t.Fatalf("requests not sorted by arrival at %d", i)
		}
		totalDemand += r.Demand
	}
	// Demand conservation: requests carve up the full matrix volume.
	var matVol float64
	for _, m := range s {
		matVol += m.Total()
	}
	if math.Abs(totalDemand-matVol)/matVol > 1e-6 {
		t.Errorf("request demand %v != matrix volume %v", totalDemand, matVol)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	n := testNet()
	s := Generate(n, DefaultGenConfig(12))
	cfg := DefaultRequestConfig()
	a := Synthesize(n, s, cfg)
	b := Synthesize(n, s, cfg)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.ID != y.ID || x.Src != y.Src || x.Dst != y.Dst ||
			x.Arrival != y.Arrival || x.Start != y.Start || x.End != y.End ||
			x.Demand != y.Demand || x.Value != y.Value || x.Kind != y.Kind {
			t.Fatalf("request %d differs: %+v vs %+v", i, x, y)
		}
	}
}

func TestSynthesizeRateRequests(t *testing.T) {
	n := testNet()
	s := Generate(n, DefaultGenConfig(12))
	cfg := DefaultRequestConfig()
	cfg.RateFraction = 1.0
	reqs := Synthesize(n, s, cfg)
	rateCount := 0
	for _, r := range reqs {
		if r.Kind == RateRequest {
			rateCount++
			if r.Rate <= 0 {
				t.Fatalf("rate request %d has rate %v", r.ID, r.Rate)
			}
			if math.Abs(r.Rate*float64(r.Window())-r.Demand) > 1e-9 {
				t.Fatalf("rate*window != demand for %d", r.ID)
			}
		}
	}
	if rateCount == 0 {
		t.Fatal("RateFraction=1 produced no rate requests")
	}
}

func TestSynthesizeRespectsMaxSlack(t *testing.T) {
	n := testNet()
	s := Generate(n, DefaultGenConfig(24))
	cfg := DefaultRequestConfig()
	cfg.MaxSlack = 2
	for _, r := range Synthesize(n, s, cfg) {
		if r.End-r.Start > 1+cfg.MaxSlack {
			t.Fatalf("request %d window %d exceeds slack cap", r.ID, r.End-r.Start)
		}
	}
}
