package pretium_test

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"pretium"
)

// TestPublicAPIRoundTrip exercises the whole public surface the way the
// README's quick start does.
func TestPublicAPIRoundTrip(t *testing.T) {
	wc := pretium.DefaultWANConfig()
	wc.Regions, wc.NodesPerRegion = 2, 3
	net := pretium.GenerateWAN(wc)

	tc := pretium.DefaultTrafficConfig(12)
	tc.StepsPerDay = 12
	series := pretium.GenerateTraffic(net, tc)

	rc := pretium.DefaultRequestConfig()
	rc.MeanSize = 30
	rc.AggregateSteps = 3
	reqs := pretium.SynthesizeRequests(net, series, rc)
	if len(reqs) == 0 {
		t.Fatal("no requests")
	}

	cfg := pretium.DefaultConfig(12)
	cfg.Cost = pretium.DefaultCostConfig(12)
	cfg.PriceWindow = 12
	ctl, err := pretium.NewController(net, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctl.Run()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pretium.Evaluate(net, reqs, out, cfg.Cost)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Value <= 0 {
		t.Error("no value delivered")
	}
	if rep.CompletionFrac < 0 || rep.CompletionFrac > 1 {
		t.Errorf("completion = %v", rep.CompletionFrac)
	}
}

func TestPublicQuoting(t *testing.T) {
	net, ids := pretium.FourNodeExample()
	st := pretium.NewPriceState(net, 2, 1)
	req := &pretium.Request{
		ID: 0, Src: ids["A"], Dst: ids["B"],
		Routes: []pretium.Path{net.ShortestPath(ids["A"], ids["B"])},
		Start:  0, End: 1, Demand: 10, Value: 5,
	}
	menu := pretium.QuoteMenu(st, req, req.Demand)
	if menu.Cap() <= 0 {
		t.Fatal("empty menu on an idle network")
	}
	// Capacity 2/step over 2 steps = 4 guaranteed.
	if math.Abs(menu.Cap()-4) > 1e-9 {
		t.Errorf("cap = %v, want 4", menu.Cap())
	}
	// Unit base price with the default short-term adjustment: the last
	// 20% of each link-step (0.4 units) is premium-priced at 2x, so the
	// full 4 units cost 3.2*1 + 0.8*2 = 4.8.
	if p := menu.Price(4); math.Abs(p-4.8) > 1e-9 {
		t.Errorf("price(4) = %v, want 4.8", p)
	}
}

// TestPublicService exercises the concurrent admission service through
// the facade: in-process quote/admit plus one round trip over the HTTP
// transport.
func TestPublicService(t *testing.T) {
	net, ids := pretium.FourNodeExample()
	m := pretium.NewMetrics()
	svc, err := pretium.NewService(pretium.NewPriceState(net, 2, 1), pretium.ServiceConfig{Obs: m})
	if err != nil {
		t.Fatal(err)
	}
	req := &pretium.Request{
		ID: 0, Src: ids["A"], Dst: ids["B"],
		Routes: []pretium.Path{net.ShortestPath(ids["A"], ids["B"])},
		Start:  0, End: 1, Demand: 10, Value: 50,
		Kind: pretium.ByteRequest,
	}
	menu := svc.Quote(req, req.Demand)
	if menu.Cap() <= 0 {
		t.Fatal("empty service menu on an idle network")
	}
	adm := svc.Admit(req)
	if adm == nil || adm.Guaranteed <= 0 {
		t.Fatalf("admission = %+v, want a guaranteed grant", adm)
	}
	srv := httptest.NewServer(pretium.ServiceHandler(svc, m))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/state = %d, want 200", resp.StatusCode)
	}
	var state struct {
		Edges int `json:"edges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		t.Fatal(err)
	}
	if state.Edges != net.NumEdges() {
		t.Errorf("edges = %d, want %d", state.Edges, net.NumEdges())
	}
}
