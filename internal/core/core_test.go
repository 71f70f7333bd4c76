package core

import (
	"math"
	"sort"
	"testing"

	"pretium/internal/cost"
	"pretium/internal/graph"
	"pretium/internal/pricing"
	"pretium/internal/sim"
	"pretium/internal/traffic"
)

// smallConfig returns a config sized for unit tests: short horizon,
// single pricing window.
func smallConfig(horizon int) Config {
	cfg := DefaultConfig(horizon)
	cfg.Cost = cost.DefaultConfig(horizon)
	cfg.PriceWindow = horizon
	return cfg
}

// uniformHighPri is high-pri use of frac of every link at every step.
func uniformHighPri(n *graph.Network, horizon int, frac float64) [][]float64 {
	m := make([][]float64, n.NumEdges())
	for _, e := range n.Edges() {
		m[e.ID] = make([]float64, horizon)
		for t := range m[e.ID] {
			m[e.ID][t] = e.Capacity * frac
		}
	}
	return m
}

// simpleNet: a -> b with capacity 10.
func simpleNet() (*graph.Network, graph.NodeID, graph.NodeID) {
	n := graph.New()
	a := n.AddNode("a", "r")
	b := n.AddNode("b", "r")
	n.AddEdge(a, b, 10)
	return n, a, b
}

func mkReq(n *graph.Network, id int, src, dst graph.NodeID, arrive, start, end int, demand, value float64) *traffic.Request {
	return &traffic.Request{
		ID: id, Src: src, Dst: dst,
		Routes:  n.KShortestPaths(src, dst, 2),
		Arrival: arrive, Start: start, End: end,
		Demand: demand, Value: value,
	}
}

func TestSingleRequestDelivered(t *testing.T) {
	n, a, b := simpleNet()
	reqs := []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 2, 15, 5)}
	c, err := New(n, reqs, smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Delivered[0]-15) > 1e-6 {
		t.Errorf("delivered %v, want 15", out.Delivered[0])
	}
	if out.Payments[0] <= 0 {
		t.Errorf("payment %v, want positive", out.Payments[0])
	}
	if out.Reneged[0] > 1e-9 {
		t.Errorf("reneged %v", out.Reneged[0])
	}
	if !c.Admitted[0] {
		t.Error("request not marked admitted")
	}
	if err := sim.CheckCapacities(n, out.Usage, 1e-6); err != nil {
		t.Error(err)
	}
}

func TestLowValueRequestDeclined(t *testing.T) {
	n, a, b := simpleNet()
	reqs := []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 2, 15, 0.01)}
	cfg := smallConfig(3)
	cfg.InitialPrice = 1.0
	c, err := New(n, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Delivered[0] != 0 {
		t.Errorf("delivered %v, want 0", out.Delivered[0])
	}
	if c.Admitted[0] {
		t.Error("low-value request admitted")
	}
}

func TestCompetingRequestsPriceOutLowValue(t *testing.T) {
	// Capacity 10 for one step; first a high-value request takes most,
	// then a low-value one faces premium segment prices.
	n, a, b := simpleNet()
	reqs := []*traffic.Request{
		mkReq(n, 0, a, b, 0, 0, 0, 9, 10),
		mkReq(n, 1, a, b, 0, 0, 0, 5, 0.6),
	}
	cfg := smallConfig(1)
	cfg.InitialPrice = 0.5 // premium price = 1.0 > 0.6
	c, err := New(n, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Delivered[0]-9) > 1e-6 {
		t.Errorf("high-value delivered %v, want 9", out.Delivered[0])
	}
	// Second request: only the premium-priced capacity remains (9 > 8 =
	// threshold), priced at 1.0 > its value 0.6 -> declined.
	if out.Delivered[1] != 0 {
		t.Errorf("low-value delivered %v, want 0", out.Delivered[1])
	}
}

func TestSAMDefersDeferrableLoad(t *testing.T) {
	// The Figure 2 story: two requests share a link; one has a lax
	// deadline. Pretium serves the urgent one now and the lax one later.
	n, a, b := simpleNet()
	reqs := []*traffic.Request{
		mkReq(n, 0, a, b, 0, 0, 0, 10, 8), // urgent, fills step 0
		mkReq(n, 1, a, b, 0, 0, 1, 10, 4), // deferrable
	}
	c, err := New(n, reqs, smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Delivered[0]-10) > 1e-6 || math.Abs(out.Delivered[1]-10) > 1e-6 {
		t.Fatalf("delivered %v, want both 10", out.Delivered)
	}
	if err := sim.CheckCapacities(n, out.Usage, 1e-6); err != nil {
		t.Error(err)
	}
}

func TestGuaranteesHonored(t *testing.T) {
	// Admitted guarantee must survive later arrivals of higher value.
	n, a, b := simpleNet()
	reqs := []*traffic.Request{
		mkReq(n, 0, a, b, 0, 0, 0, 8, 2),   // admitted first, guaranteed
		mkReq(n, 1, a, b, 0, 0, 0, 10, 50), // high value, arrives after
	}
	c, err := New(n, reqs, smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Delivered[0] < 8-1e-6 {
		t.Errorf("guaranteed request delivered %v, want 8", out.Delivered[0])
	}
	if out.Reneged[0] > 1e-9 {
		t.Errorf("reneged on a guarantee: %v", out.Reneged[0])
	}
}

func TestNoSAMStillDelivers(t *testing.T) {
	n, a, b := simpleNet()
	reqs := []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 2, 12, 5)}
	cfg := smallConfig(3)
	cfg.EnableSAM = false
	c, err := New(n, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Delivered[0]-12) > 1e-6 {
		t.Errorf("NoSAM delivered %v, want 12", out.Delivered[0])
	}
}

func TestNoMenuAllOrNothing(t *testing.T) {
	// Demand 15 > single-step capacity 10: with menus the customer buys
	// the feasible 10; without menus (all-or-nothing) they walk away.
	n, a, b := simpleNet()
	mk := func() []*traffic.Request {
		return []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 0, 15, 5)}
	}
	cfg := smallConfig(1)
	cWith, err := New(n, mk(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	outWith, err := cWith.Run()
	if err != nil {
		t.Fatal(err)
	}
	if outWith.Delivered[0] < 10-1e-6 {
		t.Errorf("menu delivered %v, want 10", outWith.Delivered[0])
	}
	cfg.Purchase = AllOrNothing
	cWithout, err := New(n, mk(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	outWithout, err := cWithout.Run()
	if err != nil {
		t.Fatal(err)
	}
	if outWithout.Delivered[0] != 0 {
		t.Errorf("NoMenu delivered %v, want 0", outWithout.Delivered[0])
	}
}

func TestRateRequestReservedPerStep(t *testing.T) {
	n, a, b := simpleNet()
	req := mkReq(n, 0, a, b, 0, 1, 3, 9, 5)
	req.Kind = traffic.RateRequest
	req.Rate = 3
	c, err := New(n, []*traffic.Request{req}, smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Delivered[0]-9) > 1e-6 {
		t.Errorf("rate request delivered %v, want 9", out.Delivered[0])
	}
	// The rate must be achieved in *each* step, not just in aggregate.
	for tt := 1; tt <= 3; tt++ {
		if out.Usage[0][tt] < 3-1e-6 {
			t.Errorf("step %d rate %v, want >= 3", tt, out.Usage[0][tt])
		}
	}
}

func TestPriceComputerRaisesCongestedPrices(t *testing.T) {
	// Window 1: heavy congestion on the single link. After the PC runs,
	// the price for the corresponding step of window 2 must exceed the
	// initial price.
	// All demand piles onto step 0 of the first window; step 1 is idle.
	// After the PC runs at t=2, the recomputed window must price the
	// congested slot above the idle slot (which falls to the floor), and
	// above the initial price: the §4.3 feedback in action. The new
	// price is the dual — the marginal *served* λ — so the demands are
	// sized (9 > the 0.8*10 premium threshold) to leave excess demand at
	// the premium λ of 0.2, twice the initial price.
	n, a, b := simpleNet()
	var reqs []*traffic.Request
	for i := 0; i < 6; i++ {
		reqs = append(reqs, mkReq(n, i, a, b, 0, 0, 0, 9, 8))
	}
	cfg := DefaultConfig(4)
	cfg.Cost = cost.DefaultConfig(2)
	cfg.PriceWindow = 2
	cfg.InitialPrice = 0.1
	cfg.MinPrice = 0.01
	c, err := New(n, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	congested, idle := c.PriceTrace[0][2], c.PriceTrace[0][3]
	if congested <= cfg.InitialPrice {
		t.Errorf("congested-slot price %v, want > initial %v", congested, cfg.InitialPrice)
	}
	if idle >= congested {
		t.Errorf("idle-slot price %v not below congested %v", idle, congested)
	}
}

func TestHighPriReducesDeliverableVolume(t *testing.T) {
	n, a, b := simpleNet()
	mk := func() []*traffic.Request {
		return []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 0, 10, 5)}
	}
	cfg := smallConfig(1)
	cfg.HighPriActual = uniformHighPri(n, 1, 0.5)
	c, err := New(n, mk(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Delivered[0] > 5+1e-6 {
		t.Errorf("delivered %v with half the link taken by high-pri", out.Delivered[0])
	}
}

func TestBadConfigs(t *testing.T) {
	n, a, b := simpleNet()
	reqs := []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 0, 1, 1)}
	if _, err := New(n, reqs, Config{Horizon: 0}); err == nil {
		t.Error("zero horizon accepted")
	}
	bad := mkReq(n, 0, a, b, 5, 0, 0, 1, 1) // arrival after start
	if _, err := New(n, []*traffic.Request{bad}, smallConfig(2)); err == nil {
		t.Error("invalid request accepted")
	}
}

// TestNewRejectsBadPrices: a negative price would pay customers to take
// capacity, and a non-finite one poisons every quote.
func TestNewRejectsBadPrices(t *testing.T) {
	n, a, b := simpleNet()
	reqs := []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 0, 1, 1)}
	for _, tc := range []struct {
		initial, min float64
		ok           bool
	}{
		{0, 0, true},
		{0.5, 0.05, true},
		{-1, 0.05, false},
		{math.NaN(), 0.05, false},
		{math.Inf(1), 0.05, false},
		{0.5, -1, false},
		{0.5, math.NaN(), false},
		{0.5, math.Inf(1), false},
	} {
		cfg := smallConfig(1)
		cfg.InitialPrice, cfg.MinPrice = tc.initial, tc.min
		if _, err := New(n, reqs, cfg); (err == nil) != tc.ok {
			t.Errorf("InitialPrice %v, MinPrice %v: err = %v, want ok %v", tc.initial, tc.min, err, tc.ok)
		}
	}
}

// TestNewRejectsBadPercentile: a charged percentile outside [0,100] is a
// configuration error, not a bill of zero.
func TestNewRejectsBadPercentile(t *testing.T) {
	n, a, b := simpleNet()
	reqs := []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 0, 1, 1)}
	for _, p := range []float64{-1, 101, math.NaN()} {
		cfg := smallConfig(1)
		cfg.Cost.Percentile = p
		if _, err := New(n, reqs, cfg); err == nil {
			t.Errorf("Percentile %v accepted", p)
		}
	}
}

// syntheticWAN is a 6-node generated WAN over 12 steps with its
// synthesized request stream (sorted by arrival) and a Pretium config
// that runs the price computer twice.
func syntheticWAN(t *testing.T) (*graph.Network, []*traffic.Request, Config) {
	t.Helper()
	wcfg := graph.DefaultWANConfig()
	wcfg.Regions, wcfg.NodesPerRegion = 2, 3
	n := graph.GenerateWAN(wcfg)
	gcfg := traffic.DefaultGenConfig(12)
	gcfg.StepsPerDay = 12
	gcfg.BaseDemand = 4
	series := traffic.Generate(n, gcfg)
	rcfg := traffic.DefaultRequestConfig()
	rcfg.MeanSize = 25
	rcfg.MaxSlack = 6
	rcfg.RoutesPerRequest = 2
	reqs := traffic.Synthesize(n, series, rcfg)
	if len(reqs) < 10 {
		t.Fatalf("only %d requests", len(reqs))
	}
	cfg := DefaultConfig(12)
	cfg.Cost = cost.DefaultConfig(12)
	cfg.PriceWindow = 6
	return n, reqs, cfg
}

func TestEndToEndSyntheticWAN(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end run")
	}
	n, reqs, cfg := syntheticWAN(t)
	c, err := New(n, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.CheckCapacities(n, out.Usage, 1e-5); err != nil {
		t.Error(err)
	}
	rep, err := sim.Evaluate(n, reqs, out, cfg.Cost)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Value <= 0 {
		t.Error("no value delivered on synthetic WAN")
	}
	if rep.Revenue <= 0 {
		t.Error("no revenue collected")
	}
	t.Logf("welfare=%.1f value=%.1f cost=%.1f profit=%.1f completion=%.2f reneged=%.2f",
		rep.Welfare, rep.Value, rep.Cost, rep.Profit, rep.CompletionFrac, rep.RenegedBytes)
	if len(c.Timings.SAM) == 0 || len(c.Timings.RA) == 0 {
		t.Error("timings not recorded")
	}
	// Delivered bytes never exceed purchases and guarantees are kept in
	// a fault-free run.
	for i, d := range out.Delivered {
		if d > reqs[i].Demand+1e-6 {
			t.Errorf("request %d overdelivered: %v > %v", i, d, reqs[i].Demand)
		}
	}
	if rep.RenegedBytes > 1e-6 {
		t.Errorf("reneged %v bytes in a fault-free run", rep.RenegedBytes)
	}
}

// TestArrivalOrderAcrossArrivals holds New's stream contract: Run buckets
// requests by arrival, so only the order within one arrival matters. The
// stream with its arrivals reversed, each arrival's requests kept in
// stream order, must decide, price, deliver and bill every request
// bit-identically to the sorted stream.
func TestArrivalOrderAcrossArrivals(t *testing.T) {
	n, sorted, cfg := syntheticWAN(t)
	// perm[j] is the sorted-stream index of the permuted stream's request j.
	perm := make([]int, len(sorted))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return sorted[perm[a]].Arrival > sorted[perm[b]].Arrival })
	permuted := make([]*traffic.Request, len(perm))
	for j, i := range perm {
		permuted[j] = sorted[i]
	}
	if permuted[0].Arrival == sorted[0].Arrival {
		t.Fatal("the stream has one arrival step; nothing to permute")
	}
	run := func(reqs []*traffic.Request) (*Controller, *sim.Outcome) {
		c, err := New(n, cloneReqs(reqs), cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return c, out
	}
	want, wantOut := run(sorted)
	got, gotOut := run(permuted)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	prices := map[float64]bool{}
	for j, i := range perm {
		if got.Admitted[j] != want.Admitted[i] || !same(got.AdmissionPrice[j], want.AdmissionPrice[i]) ||
			!same(gotOut.Delivered[j], wantOut.Delivered[i]) || !same(gotOut.Payments[j], wantOut.Payments[i]) {
			t.Errorf("request %d (arrival %d): admitted %v price %v delivered %v paid %v; sorted stream %v %v %v %v",
				i, sorted[i].Arrival, got.Admitted[j], got.AdmissionPrice[j], gotOut.Delivered[j], gotOut.Payments[j],
				want.Admitted[i], want.AdmissionPrice[i], wantOut.Delivered[i], wantOut.Payments[i])
		}
		prices[want.AdmissionPrice[i]] = true
	}
	if len(prices) < 2 {
		t.Errorf("every request was admitted at one price; the stream no longer moves prices between arrivals")
	}
}

func TestAblationOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end run")
	}
	// Full Pretium should (weakly) beat NoMenu on welfare in a congested
	// setting with partial-transfer value.
	n, a, b := simpleNet()
	var reqs []*traffic.Request
	for i := 0; i < 8; i++ {
		reqs = append(reqs, mkReq(n, i, a, b, 0, 0, 3, 12, float64(2+i)))
	}
	run := func(menu bool) float64 {
		cfg := smallConfig(4)
		if !menu {
			cfg.Purchase = AllOrNothing
		}
		c, err := New(n, cloneReqs(reqs), cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.Evaluate(n, reqs, out, cfg.Cost)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Welfare
	}
	full, noMenu := run(true), run(false)
	if full < noMenu-1e-6 {
		t.Errorf("full Pretium welfare %v < NoMenu %v", full, noMenu)
	}
}

func cloneReqs(reqs []*traffic.Request) []*traffic.Request {
	out := make([]*traffic.Request, len(reqs))
	for i, r := range reqs {
		cp := *r
		out[i] = &cp
	}
	return out
}

// The controller's state prices with the default short-term adjustment
// rule.
func TestAdjustConfigApplied(t *testing.T) {
	n, a, b := simpleNet()
	reqs := []*traffic.Request{mkReq(n, 0, a, b, 0, 0, 0, 1, 1)}
	c, err := New(n, reqs, smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.State().Adjust; got != pricing.DefaultAdjust() {
		t.Errorf("state adjust = %+v, want %+v", got, pricing.DefaultAdjust())
	}
}
