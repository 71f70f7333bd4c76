package pricing

import (
	"math"
	"testing"

	"pretium/internal/cost"
	"pretium/internal/graph"
	"pretium/internal/lp"
	"pretium/internal/traffic"
)

// twoPathNet: s->t direct (cap 4) and s->m->t (cap 4 each edge).
func twoPathNet() (*graph.Network, *traffic.Request) {
	n := graph.New()
	s := n.AddNode("s", "r")
	m := n.AddNode("m", "r")
	t := n.AddNode("t", "r")
	n.AddEdge(s, t, 4)
	n.AddEdge(s, m, 4)
	n.AddEdge(m, t, 4)
	routes := n.KShortestPaths(s, t, 2)
	req := &traffic.Request{
		ID: 0, Src: s, Dst: t, Routes: routes,
		Arrival: 0, Start: 0, End: 1, Demand: 100, Value: 10,
	}
	return n, req
}

func flatState(n *graph.Network, horizon int, price float64) *State {
	st := NewState(n, horizon, price)
	st.Adjust = AdjustConfig{Threshold: 1.0, Factor: 1} // disable premium for baseline tests
	return st
}

func TestNewStateInitialPrices(t *testing.T) {
	n, _ := twoPathNet()
	n.SetUsagePriced(0, 2)
	st := NewState(n, 3, 1)
	if st.BasePrice[0][0] != 3 { // base + C_e
		t.Errorf("usage-priced initial price = %v, want 3", st.BasePrice[0][0])
	}
	if st.BasePrice[1][2] != 1 {
		t.Errorf("owned-link initial price = %v, want 1", st.BasePrice[1][2])
	}
}

func TestMarginalPricePremium(t *testing.T) {
	n, _ := twoPathNet()
	st := NewState(n, 1, 1) // default adjust: threshold 0.8, factor 2
	e := graph.EdgeID(0)    // capacity 4, threshold at 3.2
	if p := st.MarginalPrice(e, 0, 0); p != 1 {
		t.Errorf("base marginal = %v", p)
	}
	if room := st.segmentRoom(e, 0, 0); math.Abs(room-3.2) > 1e-9 {
		t.Errorf("segment room = %v, want 3.2", room)
	}
	st.Reserve(graph.Path{e}, 0, 3.5)
	if p := st.MarginalPrice(e, 0, 0); p != 2 {
		t.Errorf("premium marginal = %v, want 2", p)
	}
	if room := st.segmentRoom(e, 0, 0); math.Abs(room-0.5) > 1e-9 {
		t.Errorf("premium room = %v, want 0.5", room)
	}
	st.Reserve(graph.Path{e}, 0, 0.5)
	if room := st.segmentRoom(e, 0, 0); room != 0 {
		t.Errorf("full link room = %v, want 0", room)
	}
}

func TestQuoteMenuShapeAndCap(t *testing.T) {
	n, req := twoPathNet()
	st := flatState(n, 2, 1)
	menu := QuoteMenu(st, req, req.Demand)
	// Direct path costs 1/byte, 2-hop path 2/byte; 2 timesteps each:
	// cap = 4+4 direct + 4+4 two-hop = 16.
	if math.Abs(menu.Cap()-16) > 1e-9 {
		t.Fatalf("cap = %v, want 16", menu.Cap())
	}
	// Prices nondecreasing, starting at 1 ending at 2.
	for i := 1; i < len(menu.Segments); i++ {
		if menu.Segments[i].Price < menu.Segments[i-1].Price {
			t.Fatalf("menu not convex: %+v", menu.Segments)
		}
	}
	if menu.Marginal(1) != 1 {
		t.Errorf("first marginal = %v", menu.Marginal(1))
	}
	if menu.Marginal(15.9) != 2 {
		t.Errorf("last marginal = %v", menu.Marginal(15.9))
	}
	// Price of 10 bytes: 8 at price 1 + 2 at price 2 = 12.
	if got := menu.Price(10); math.Abs(got-12) > 1e-9 {
		t.Errorf("Price(10) = %v, want 12", got)
	}
	// Beyond-cap pricing extends the final marginal.
	if got := menu.Price(18); math.Abs(got-(8+16+2*2)) > 1e-9 {
		t.Errorf("Price(18) = %v, want 28", got)
	}
	if menu.Price(-1) != 0 {
		t.Errorf("Price(-1) = %v", menu.Price(-1))
	}
}

func TestShorterDeadlineCostsMore(t *testing.T) {
	// Figure 4: same request with a shorter deadline gets a (weakly)
	// worse menu: smaller cap, and at every volume a >= price.
	n, req := twoPathNet()
	st := flatState(n, 2, 1)
	long := QuoteMenu(st, req, req.Demand)
	short := *req
	short.End = 0
	shortMenu := QuoteMenu(st, &short, short.Demand)
	if shortMenu.Cap() >= long.Cap() {
		t.Errorf("short-deadline cap %v !< long cap %v", shortMenu.Cap(), long.Cap())
	}
	for _, x := range []float64{1, 4, 8} {
		if shortMenu.Price(x) < long.Price(x)-1e-9 {
			t.Errorf("short deadline cheaper at x=%v: %v < %v", x, shortMenu.Price(x), long.Price(x))
		}
	}
}

func TestMenuEmptyNetwork(t *testing.T) {
	n, req := twoPathNet()
	st := flatState(n, 2, 1)
	// Saturate everything.
	for e := 0; e < n.NumEdges(); e++ {
		for tt := 0; tt < 2; tt++ {
			st.Reserve(graph.Path{graph.EdgeID(e)}, tt, 100)
		}
	}
	menu := QuoteMenu(st, req, req.Demand)
	if menu.Cap() != 0 || len(menu.Segments) != 0 {
		t.Errorf("saturated network quoted cap %v", menu.Cap())
	}
	if !math.IsInf(menu.Marginal(1), 1) {
		t.Errorf("empty menu marginal = %v", menu.Marginal(1))
	}
	if menu.Purchase(10, 5) != 0 {
		t.Errorf("purchase from empty menu")
	}
}

func TestPurchaseRule(t *testing.T) {
	n, req := twoPathNet()
	st := flatState(n, 2, 1)
	menu := QuoteMenu(st, req, req.Demand)
	// Value 1.5: only the price-1 segments (8 bytes) are worth it.
	if got := menu.Purchase(1.5, 100); math.Abs(got-8) > 1e-9 {
		t.Errorf("Purchase(1.5) = %v, want 8", got)
	}
	// Value 3: everything quoted is worth it; demand caps at 100 > 16,
	// and best-effort bytes beyond cap still price at 2 <= 3.
	if got := menu.Purchase(3, 100); got != 100 {
		t.Errorf("Purchase(3, 100) = %v, want 100", got)
	}
	// Demand caps the purchase.
	if got := menu.Purchase(3, 5); got != 5 {
		t.Errorf("Purchase(3, 5) = %v, want 5", got)
	}
	if got := menu.Purchase(3, 0); got != 0 {
		t.Errorf("Purchase with zero demand = %v", got)
	}
	// Value below every price: nothing.
	if got := menu.Purchase(0.5, 10); got != 0 {
		t.Errorf("Purchase(0.5) = %v, want 0", got)
	}
}

func TestAdmitReservesAndPrices(t *testing.T) {
	n, req := twoPathNet()
	st := flatState(n, 2, 1)
	req.Value = 1.5
	req.Demand = 6
	adm := NewAdmitter(st).Admit(req)
	if adm == nil {
		t.Fatal("admission declined")
	}
	if math.Abs(adm.Bought-6) > 1e-9 || math.Abs(adm.Guaranteed-6) > 1e-9 {
		t.Errorf("bought %v guaranteed %v", adm.Bought, adm.Guaranteed)
	}
	if math.Abs(adm.Payment-6) > 1e-9 { // all on price-1 direct path
		t.Errorf("payment = %v, want 6", adm.Payment)
	}
	if adm.Lambda != 1 {
		t.Errorf("lambda = %v, want 1", adm.Lambda)
	}
	// Reservations landed on the direct edge: 4 at t=0, 2 at t=1 (or
	// split across steps; total 6 on edge 0).
	total := st.Reserved[0][0] + st.Reserved[0][1]
	if math.Abs(total-6) > 1e-9 {
		t.Errorf("reserved on direct edge = %v, want 6", total)
	}
	// A second identical request sees reduced availability.
	menu2 := QuoteMenu(st, req, req.Demand)
	if menu2.Price(6) <= 6 {
		t.Errorf("second quote not more expensive: %v", menu2.Price(6))
	}
}

func TestAdmitDeclined(t *testing.T) {
	n, req := twoPathNet()
	st := flatState(n, 2, 100) // prices far above value
	req.Value = 1
	if adm := NewAdmitter(st).Admit(req); adm != nil {
		t.Errorf("expected decline, got %+v", adm)
	}
}

func TestAdmitPartialGuarantee(t *testing.T) {
	// Demand exceeds x̄: guarantee tops out at the cap.
	n, req := twoPathNet()
	st := flatState(n, 1, 1)
	req.End = 0 // one timestep: cap = 4 (direct) + 4 (two-hop) = 8
	req.Demand = 20
	req.Value = 10
	adm := NewAdmitter(st).Admit(req)
	if adm == nil {
		t.Fatal("declined")
	}
	if math.Abs(adm.Guaranteed-8) > 1e-9 {
		t.Errorf("guaranteed = %v, want 8", adm.Guaranteed)
	}
	if adm.Bought != 20 {
		t.Errorf("bought = %v, want 20 (best-effort beyond cap)", adm.Bought)
	}
}

func TestSetReservedAndPricesWindow(t *testing.T) {
	n, _ := twoPathNet()
	st := flatState(n, 4, 1)
	usage := make([][]float64, n.NumEdges())
	for e := range usage {
		usage[e] = []float64{1, 2, 3, 4}
	}
	if err := st.SetReserved(usage); err != nil {
		t.Fatal(err)
	}
	if st.Reserved[1][2] != 3 {
		t.Errorf("SetReserved not applied")
	}
	if err := st.SetReserved(usage[:1]); err == nil {
		t.Error("short matrix accepted")
	}

	window := make([][]float64, n.NumEdges())
	for e := range window {
		window[e] = []float64{5, 7}
	}
	if err := st.SetPricesWindow(1, window); err != nil {
		t.Fatal(err)
	}
	// Steps 1..3 tile the window [5 7]: 5,7,5.
	want := []float64{1, 5, 7, 5}
	for tt, w := range want {
		if st.BasePrice[0][tt] != w {
			t.Errorf("price[0][%d] = %v, want %v", tt, st.BasePrice[0][tt], w)
		}
	}
	if err := st.SetPricesWindow(0, window[:1]); err == nil {
		t.Error("short window accepted")
	}
	if err := st.SetPricesWindow(0, make([][]float64, n.NumEdges())); err == nil {
		t.Error("empty window accepted")
	}
}

func TestComputePricesCongestedLink(t *testing.T) {
	// Two historical requests both need edge 0 at step 0; capacity binds
	// so its dual price must be positive, and the uncontested step 1
	// stays at the floor.
	n := graph.New()
	a := n.AddNode("a", "r")
	b := n.AddNode("b", "r")
	e := n.AddEdge(a, b, 4)
	path := graph.Path{e}
	history := []HistoryEntry{
		{Routes: []graph.Path{path}, Start: 0, End: 0, Bytes: 4, Lambda: 5},
		{Routes: []graph.Path{path}, Start: 0, End: 0, Bytes: 4, Lambda: 3},
	}
	capacity := [][]float64{{4, 4}}
	cfg := ComputerConfig{
		WindowLen: 2,
		Cost:      cost.DefaultConfig(2),
		MinPrice:  0.01,
	}
	prices, err := ComputePrices(n, history, capacity, 2, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if prices[e][0] < 3-1e-6 {
		t.Errorf("congested-step price = %v, want >= 3", prices[e][0])
	}
	if math.Abs(prices[e][1]-0.01) > 1e-9 {
		t.Errorf("idle-step price = %v, want floor 0.01", prices[e][1])
	}
}

func TestComputePricesSelfCorrecting(t *testing.T) {
	// The §4.3 feedback loop: more demand on a link -> higher dual price.
	n := graph.New()
	a := n.AddNode("a", "r")
	b := n.AddNode("b", "r")
	e := n.AddEdge(a, b, 10)
	path := graph.Path{e}
	capacity := [][]float64{{10}}
	cfg := ComputerConfig{WindowLen: 1, Cost: cost.DefaultConfig(1), MinPrice: 0}

	light := []HistoryEntry{{Routes: []graph.Path{path}, Start: 0, End: 0, Bytes: 5, Lambda: 2}}
	heavy := []HistoryEntry{
		{Routes: []graph.Path{path}, Start: 0, End: 0, Bytes: 8, Lambda: 2},
		{Routes: []graph.Path{path}, Start: 0, End: 0, Bytes: 8, Lambda: 4},
	}
	pLight, err := ComputePrices(n, light, capacity, 1, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pHeavy, err := ComputePrices(n, heavy, capacity, 1, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(pHeavy[e][0] > pLight[e][0]) {
		t.Errorf("heavy price %v not above light price %v", pHeavy[e][0], pLight[e][0])
	}
}

func TestComputePricesErrors(t *testing.T) {
	n := graph.New()
	a := n.AddNode("a", "r")
	b := n.AddNode("b", "r")
	n.AddEdge(a, b, 4)
	cfg := ComputerConfig{WindowLen: 0, Cost: cost.DefaultConfig(2)}
	if _, err := ComputePrices(n, nil, [][]float64{{4, 4}}, 2, 0, cfg); err == nil {
		t.Error("WindowLen 0 accepted")
	}
	cfg.WindowLen = 3
	if _, err := ComputePrices(n, nil, [][]float64{{4, 4}}, 2, 0, cfg); err == nil {
		t.Error("window beyond period accepted")
	}
}

func TestComputePricesSkipsEmptyHistory(t *testing.T) {
	n := graph.New()
	a := n.AddNode("a", "r")
	b := n.AddNode("b", "r")
	e := n.AddEdge(a, b, 4)
	cfg := ComputerConfig{WindowLen: 1, Cost: cost.DefaultConfig(1), MinPrice: 0.5, Solver: lp.Options{}}
	history := []HistoryEntry{{Routes: []graph.Path{{e}}, Start: 0, End: 0, Bytes: 0, Lambda: 1}}
	prices, err := ComputePrices(n, history, [][]float64{{4}}, 1, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if prices[e][0] != 0.5 {
		t.Errorf("price = %v, want floor", prices[e][0])
	}
}

// TestCostFloorAmortizesOverChargingWindow: the floor is C_e over the
// charging window (24 steps), not the pricing window (12) — the same
// break-even rate core seeds usage-priced links with.
func TestCostFloorAmortizesOverChargingWindow(t *testing.T) {
	n := graph.New()
	e := n.AddEdge(n.AddNode("a", "r"), n.AddNode("b", "r"), 4)
	n.SetUsagePriced(e, 24)
	capacity := [][]float64{make([]float64, 24)}
	for i := range capacity[0] {
		capacity[0][i] = 4
	}
	cfg := ComputerConfig{WindowLen: 12, Cost: cost.DefaultConfig(24), CostFloorFrac: 1}
	prices, err := ComputePrices(n, nil, capacity, 24, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range prices[e] {
		if p != 1 {
			t.Errorf("step %d: idle edge priced %v, want C_e/24 = 1", i, p)
		}
	}
}

// setUniformOutage takes frac of every link out of service at every step.
func setUniformOutage(st *State, frac float64) {
	for _, e := range st.Net.Edges() {
		for t := 0; t < st.Horizon; t++ {
			st.SetOutage(e.ID, t, e.Capacity*frac)
		}
	}
}
