package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pretium/internal/graph"
	"pretium/internal/obs"
	"pretium/internal/pricing"
	"pretium/internal/traffic"
)

// httpWorld: two regions, one fat path each way, horizon 6, price 1.
func httpWorld(t *testing.T) (*graph.Network, http.Handler, *Service, *obs.Metrics) {
	t.Helper()
	net := graph.New()
	a := net.AddNode("a", "east")
	b := net.AddNode("b", "east")
	c := net.AddNode("c", "west")
	net.AddEdge(a, b, 100)
	net.AddEdge(b, c, 100)
	net.AddEdge(a, c, 100)
	m := obs.NewMetrics()
	svc, err := New(pricing.NewState(net, 6, 1.0), Config{Obs: m})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return net, Handler(svc, m), svc, m
}

func doJSON(t *testing.T, h http.Handler, method, path string, body any) (*httptest.ResponseRecorder, map[string]json.RawMessage) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		bs, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(bs)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	out := map[string]json.RawMessage{}
	if w.Body.Len() > 0 {
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: bad response JSON %q: %v", method, path, w.Body.String(), err)
		}
	}
	return w, out
}

func TestHTTPQuoteAdmitFlow(t *testing.T) {
	_, h, svc, _ := httpWorld(t)

	wire := wireRequest{ID: 1, Src: "a", Dst: "c", Start: 0, End: 2, Demand: 10, Value: 5}
	w, _ := doJSON(t, h, "POST", "/v1/quote", wire)
	if w.Code != http.StatusOK {
		t.Fatalf("quote: status %d body %s", w.Code, w.Body)
	}
	var q wireQuoteResponse
	if err := json.Unmarshal(w.Body.Bytes(), &q); err != nil {
		t.Fatalf("quote response: %v", err)
	}
	if q.Cap < 10 || len(q.Segments) == 0 {
		t.Fatalf("quote should offer full demand: %+v", q)
	}
	// The quote is non-binding: no room moved.
	if got := svc.DrainState().Reserved[2][0]; got != 0 {
		t.Fatalf("quote reserved room: %v", got)
	}

	w, _ = doJSON(t, h, "POST", "/v1/admit", wire)
	if w.Code != http.StatusOK {
		t.Fatalf("admit: status %d body %s", w.Code, w.Body)
	}
	var adm wireAdmitResponse
	if err := json.Unmarshal(w.Body.Bytes(), &adm); err != nil {
		t.Fatalf("admit response: %v", err)
	}
	if !adm.Admitted || adm.Bought != 10 || len(adm.Allocs) == 0 {
		t.Fatalf("admit should buy the full demand at value 5 > price 1: %+v", adm)
	}
	// Binding: room moved by exactly the guaranteed bytes.
	total := 0.0
	st := svc.DrainState()
	for e := range st.Reserved {
		for _, v := range st.Reserved[e] {
			total += v
		}
	}
	if total != adm.Guaranteed {
		t.Fatalf("room moved by %v, admitted %v", total, adm.Guaranteed)
	}

	// A worthless request declines.
	wire.ID, wire.Value = 2, 0
	w, _ = doJSON(t, h, "POST", "/v1/admit", wire)
	if w.Code != http.StatusOK {
		t.Fatalf("decline admit: status %d", w.Code)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &adm); err != nil {
		t.Fatalf("decline response: %v", err)
	}
	if adm.Admitted {
		t.Fatal("zero-value request must decline")
	}
}

func TestHTTPPublish(t *testing.T) {
	net, h, svc, _ := httpWorld(t)

	// Price-only publish: double everything.
	prices := make([][]float64, net.NumEdges())
	for e := range prices {
		prices[e] = []float64{2}
	}
	w, out := doJSON(t, h, "POST", "/v1/publish", wirePublishRequest{BasePrice: prices})
	if w.Code != http.StatusOK {
		t.Fatalf("publish: status %d body %s", w.Code, w.Body)
	}
	if string(out["epoch"]) != "1" {
		t.Fatalf("publish epoch: %s", out["epoch"])
	}
	wire := wireRequest{ID: 3, Src: "a", Dst: "c", Start: 0, End: 0, Demand: 1, Value: 5}
	w, _ = doJSON(t, h, "POST", "/v1/quote", wire)
	var q wireQuoteResponse
	if err := json.Unmarshal(w.Body.Bytes(), &q); err != nil {
		t.Fatalf("quote response: %v", err)
	}
	if q.Epoch != 1 || len(q.Segments) == 0 || q.Segments[0].Price != 2 {
		t.Fatalf("quote after publish should price at 2 in epoch 1: %+v", q)
	}

	// Room-adopting publish clears reservations.
	doJSON(t, h, "POST", "/v1/admit", wireRequest{ID: 4, Src: "a", Dst: "c", Start: 0, End: 0, Demand: 5, Value: 9})
	zero := make([][]float64, net.NumEdges())
	for e := range zero {
		zero[e] = make([]float64, svc.Horizon())
	}
	w, out = doJSON(t, h, "POST", "/v1/publish", wirePublishRequest{Reserved: zero})
	if w.Code != http.StatusOK {
		t.Fatalf("re-plan publish: status %d body %s", w.Code, w.Body)
	}
	if string(out["epoch"]) != "2" || svc.Epoch() != 2 {
		t.Fatalf("re-plan publish reported epoch %s, service is at %d, want 2", out["epoch"], svc.Epoch())
	}
	st := svc.DrainState()
	for e := range st.Reserved {
		for ts, v := range st.Reserved[e] {
			if v != 0 {
				t.Fatalf("re-plan left room at edge %d step %d: %v", e, ts, v)
			}
		}
	}
}

// TestHTTPPublishRejectsNegative: a negative price would quote negative
// payments and a negative reservation would sell room above capacity, so
// either entry fails the publish with 400 and leaves the epoch as it was.
func TestHTTPPublishRejectsNegative(t *testing.T) {
	net, h, svc, _ := httpWorld(t)
	matrix := func(neg float64) [][]float64 {
		m := make([][]float64, net.NumEdges())
		for e := range m {
			m[e] = make([]float64, svc.Horizon())
		}
		m[1][2] = neg
		return m
	}
	for _, in := range []wirePublishRequest{
		{BasePrice: matrix(-1)},
		{Reserved: matrix(-0.5)},
		{BasePrice: matrix(0), Reserved: matrix(-3)},
	} {
		w, out := doJSON(t, h, "POST", "/v1/publish", in)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("publish %+v: status %d, want 400", in, w.Code)
		}
		if _, ok := out["error"]; !ok {
			t.Fatalf("publish %+v: no error field in %s", in, w.Body)
		}
		if svc.Epoch() != 0 {
			t.Fatalf("rejected publish moved the epoch to %d", svc.Epoch())
		}
	}
	var q wireQuoteResponse
	w, _ := doJSON(t, h, "POST", "/v1/quote", wireRequest{ID: 1, Src: "a", Dst: "c", Start: 0, End: 0, Demand: 1, Value: 5})
	if err := json.Unmarshal(w.Body.Bytes(), &q); err != nil {
		t.Fatalf("quote response: %v", err)
	}
	if q.Epoch != 0 || len(q.Segments) == 0 || q.Segments[0].Price != 1 {
		t.Fatalf("quote after rejected publishes: %+v, want epoch 0 at price 1", q)
	}
}

func TestHTTPStateAndMetrics(t *testing.T) {
	_, h, _, _ := httpWorld(t)
	w, _ := doJSON(t, h, "POST", "/v1/admit", wireRequest{ID: 1, Src: "a", Dst: "c", Start: 0, End: 0, Demand: 1, Value: 5})
	if w.Code != http.StatusOK {
		t.Fatalf("admit: %d", w.Code)
	}

	w, _ = doJSON(t, h, "GET", "/v1/state", nil)
	var st wireStateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("state: %v", err)
	}
	if st.Horizon != 6 || st.Edges != 3 || st.Nodes != 3 {
		t.Fatalf("state response: %+v", st)
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "serve.admits") {
		t.Fatalf("metrics: %d %s", rec.Code, rec.Body)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, h, _, _ := httpWorld(t)
	cases := []struct {
		name string
		body any
	}{
		{"unknown src", wireRequest{Src: "nope", Dst: "c", Start: 0, End: 1, Demand: 1}},
		{"unknown dst", wireRequest{Src: "a", Dst: "nope", Start: 0, End: 1, Demand: 1}},
		{"same node", wireRequest{Src: "a", Dst: "a", Start: 0, End: 1, Demand: 1}},
		{"bad window", wireRequest{Src: "a", Dst: "c", Start: 4, End: 2, Demand: 1}},
		{"window past horizon", wireRequest{Src: "a", Dst: "c", Start: 99, End: 100, Demand: 1}},
		{"no demand", wireRequest{Src: "a", Dst: "c", Start: 0, End: 1, Demand: 0}},
		{"junk", map[string]any{"demand": "lots"}},
		{"unknown field", map[string]any{"src": "a", "dst": "c", "end": 1, "demand": 1, "priority": 9}},
		{"max_routes over limit", wireRequest{Src: "a", Dst: "c", Start: 0, End: 1, Demand: 1, MaxRoutes: MaxRoutesLimit + 1}},
		{"max_routes absurd", wireRequest{Src: "a", Dst: "c", Start: 0, End: 1, Demand: 1, MaxRoutes: 1000000}},
	}
	for _, tc := range cases {
		for _, path := range []string{"/v1/quote", "/v1/admit"} {
			w, out := doJSON(t, h, "POST", path, tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("%s on %s: status %d, want 400", tc.name, path, w.Code)
			}
			if _, ok := out["error"]; !ok {
				t.Fatalf("%s on %s: no error field in %s", tc.name, path, w.Body)
			}
		}
	}
	// Ragged publish matrix.
	w, _ := doJSON(t, h, "POST", "/v1/publish", wirePublishRequest{BasePrice: [][]float64{{1}}})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("ragged publish: status %d", w.Code)
	}

	// Bodies no marshaller produces: trailing data after the object, and
	// objects padded past the size caps.
	good := `{"src":"a","dst":"c","start":0,"end":1,"demand":1,"value":5,"max_routes":8}`
	raw := []struct {
		name, path, body string
		want             int
		errHas           string
	}{
		{"largest max_routes", "/v1/quote", good, http.StatusOK, ""},
		{"trailing whitespace", "/v1/quote", good + " \n\t ", http.StatusOK, ""},
		{"trailing object", "/v1/quote", good + `{}`, http.StatusBadRequest, "trailing data"},
		{"trailing brace", "/v1/admit", good + `}`, http.StatusBadRequest, "trailing data"},
		{"trailing junk", "/v1/admit", good + ` x`, http.StatusBadRequest, "trailing data"},
		{"oversized request", "/v1/admit", good + strings.Repeat(" ", maxRequestBytes), http.StatusBadRequest, "trailing data"},
		{"oversized field", "/v1/quote", `{"src":"` + strings.Repeat("a", maxRequestBytes) + `"}`, http.StatusBadRequest, "too large"},
		{"publish trailing object", "/v1/publish", `{}{}`, http.StatusBadRequest, "trailing data"},
		{"oversized publish", "/v1/publish", `{"base_price":[[` + strings.Repeat("1,", 8<<10) + `1]]}`, http.StatusBadRequest, "too large"},
	}
	for _, tc := range raw {
		rec := post(h, tc.path, []byte(tc.body))
		if rec.Code != tc.want || !strings.Contains(rec.Body.String(), tc.errHas) {
			t.Fatalf("%s: status %d, want %d with %q (body %s)", tc.name, rec.Code, tc.want, tc.errHas, rec.Body)
		}
	}
}

// paperService is a PaperWAN admission service with uneven prices, so
// which routes a request gets shows in every menu.
func paperService(t testing.TB, horizon int) *Service {
	t.Helper()
	net := graph.PaperWAN(1)
	st := pricing.NewState(net, horizon, 1.0)
	for e := 0; e < net.NumEdges(); e++ {
		for ts := 0; ts < horizon; ts++ {
			st.SetBasePrice(graph.EdgeID(e), ts, 1+0.01*float64((e*7+ts*3)%17))
		}
	}
	svc, err := New(st, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return svc
}

// paperWire draws n wire requests over random PaperWAN pairs.
func paperWire(net *graph.Network, horizon, n int, seed int64) []wireRequest {
	rng := rand.New(rand.NewSource(seed))
	out := make([]wireRequest, n)
	for i := range out {
		src := rng.Intn(net.NumNodes())
		dst := (src + 1 + rng.Intn(net.NumNodes()-1)) % net.NumNodes()
		start := rng.Intn(horizon - 4)
		out[i] = wireRequest{
			ID: i, Src: net.Node(graph.NodeID(src)).Name, Dst: net.Node(graph.NodeID(dst)).Name,
			Start: start, End: start + 1 + rng.Intn(3),
			Demand: 20 + 200*rng.Float64(), Value: 0.5 + 2*rng.Float64(),
			MaxRoutes: []int{0, 1, 3, MaxRoutesLimit}[rng.Intn(4)],
		}
	}
	return out
}

func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	return rec
}

// TestHTTPRepliesIndependentOfRouteMemo replays one quote/admit sequence
// through a handler whose network has never resolved a route, through one
// whose memo was warmed for every pair first, and through direct
// Service calls on routes resolved by a third, untouched network (whose
// KShortestPaths internal/graph pins to the reference Yen on every
// PaperWAN pair). The direct side encodes replies the way the handler
// did before it had a scratch — structs appended from nil into a plain
// encoder — so the three byte streams agreeing is both "the memo changes
// nothing" and "the pooled codec changes nothing".
func TestHTTPRepliesIndependentOfRouteMemo(t *testing.T) {
	const horizon, n = 24, 120
	coldSvc, warmSvc, direct := paperService(t, horizon), paperService(t, horizon), paperService(t, horizon)
	cold, warm := Handler(coldSvc, nil), Handler(warmSvc, nil)
	oracle := graph.PaperWAN(1)
	wires := paperWire(oracle, horizon, n, 5)
	bodies := make([][]byte, n)
	for i, wr := range wires {
		bodies[i], _ = json.Marshal(wr)
		wr.MaxRoutes = MaxRoutesLimit
		b, _ := json.Marshal(wr)
		if rec := post(warm, "/v1/quote", b); rec.Code != http.StatusOK {
			t.Fatalf("warming quote %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	admitted, segments := 0, 0
	for i, wr := range wires {
		k := wr.MaxRoutes
		if k == 0 {
			k = DefaultMaxRoutes
		}
		src, _ := oracle.NodeByName(wr.Src)
		dst, _ := oracle.NodeByName(wr.Dst)
		req := &traffic.Request{
			ID: wr.ID, Src: src, Dst: dst, Routes: oracle.KShortestPaths(src, dst, k),
			Arrival: wr.Start, Start: wr.Start, End: wr.End,
			Demand: wr.Demand, Value: wr.Value, Kind: traffic.ByteRequest,
		}
		var want bytes.Buffer
		path := "/v1/quote"
		if i%3 == 2 {
			path = "/v1/admit"
			out := wireAdmitResponse{Epoch: direct.Epoch()}
			if adm := direct.Admit(req); adm != nil {
				admitted++
				out.Admitted, out.Bought, out.Guaranteed = true, adm.Bought, adm.Guaranteed
				out.Payment, out.Lambda = adm.Payment, adm.Lambda
				for _, a := range adm.Allocs {
					out.Allocs = append(out.Allocs, wireAlloc{Route: a.RouteIdx, Time: a.Time, Bytes: a.Bytes})
				}
			}
			_ = json.NewEncoder(&want).Encode(out)
		} else {
			menu := direct.Quote(req, req.Demand)
			out := wireQuoteResponse{Epoch: direct.Epoch(), Cap: menu.Cap()}
			for _, sg := range menu.Segments {
				out.Segments = append(out.Segments, wireSegment{Bytes: sg.Bytes, Price: sg.Price, Route: sg.RouteIdx, Time: sg.Time})
			}
			segments += len(out.Segments)
			_ = json.NewEncoder(&want).Encode(out)
		}
		for name, h := range map[string]http.Handler{"cold": cold, "warm": warm} {
			rec := post(h, path, bodies[i])
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
				t.Fatalf("request %d %s on the %s memo: status %d\n got %s\nwant %s", i, path, name, rec.Code, rec.Body, want.Bytes())
			}
		}
	}
	if admitted == 0 || segments == 0 {
		t.Fatalf("sequence exercised nothing: %d admitted, %d segments", admitted, segments)
	}
	// An empty menu (no route from c back to a) is "segments":null on the
	// wire, as it always was, even though the scratch's slice is non-nil.
	_, small, _, _ := httpWorld(t)
	for i := 0; i < 2; i++ {
		post(small, "/v1/quote", []byte(`{"src":"a","dst":"c","end":1,"demand":1}`))
		rec := post(small, "/v1/quote", []byte(`{"src":"c","dst":"a","end":1,"demand":1}`))
		if got := rec.Body.String(); got != `{"epoch":0,"cap":0,"segments":null}`+"\n" {
			t.Fatalf("empty menu encoding changed: %s", got)
		}
	}
}
