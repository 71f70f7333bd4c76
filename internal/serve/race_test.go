package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"pretium/internal/graph"
	"pretium/internal/pricing"
	"pretium/internal/traffic"
)

// The race suite runs quoters, admitters, and a publisher concurrently
// and checks the linearizability story by *pricing* each epoch
// distinctly: epoch k publishes the uniform price epochPrice(k) with
// the premium rule disabled (Threshold 1, Factor 1), so every menu
// segment and every admission's Lambda names exactly one epoch. Torn
// snapshots, stale-epoch commits, and lost room all become visible as
// impossible prices or unbalanced byte accounting. Run under -race this
// is the CI service-race job's core.

func epochPrice(k int) float64 { return 1 + float64(k)*0.5 }

func priceEpoch(p float64) (int, bool) {
	k := (p - 1) / 0.5
	r := math.Round(k)
	if math.Abs(k-r) > 1e-9 || r < 0 {
		return 0, false
	}
	return int(r), true
}

// raceWorld is a 4-region clique: one node per region, directed edges
// between every ordered pair, so every request is single-edge.
func raceWorld(t testing.TB, horizon int) (*graph.Network, []*traffic.Request) {
	t.Helper()
	net := graph.New()
	var nodes []graph.NodeID
	for i := 0; i < 4; i++ {
		nodes = append(nodes, net.AddNode(fmt.Sprintf("n%d", i), fmt.Sprintf("r%d", i)))
	}
	var edges []graph.EdgeID
	for i := range nodes {
		for j := range nodes {
			if i != j {
				edges = append(edges, net.AddEdge(nodes[i], nodes[j], 1e9))
			}
		}
	}
	var reqs []*traffic.Request
	id := 0
	for i := range nodes {
		for j := range nodes {
			if i == j {
				continue
			}
			e := edges[0]
			for _, ed := range net.Out(nodes[i]) {
				if net.Edge(ed).To == nodes[j] {
					e = ed
				}
			}
			for s := 0; s < horizon; s++ {
				reqs = append(reqs, &traffic.Request{
					ID: id, Src: nodes[i], Dst: nodes[j],
					Routes: []graph.Path{{e}},
					Start:  s, End: min(s+2, horizon-1),
					Demand: 64, Value: 1e6, Kind: traffic.ByteRequest,
				})
				id++
			}
		}
	}
	return net, reqs
}

func raceService(t testing.TB, net *graph.Network, horizon int) *Service {
	t.Helper()
	st := pricing.NewState(net, horizon, epochPrice(0))
	st.Adjust = pricing.AdjustConfig{Threshold: 1, Factor: 1}
	svc, err := New(st, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return svc
}

func racePlan(net *graph.Network, horizon, k int) *pricing.State {
	plan := pricing.NewState(net, horizon, epochPrice(k))
	plan.Adjust = pricing.AdjustConfig{Threshold: 1, Factor: 1}
	return plan
}

// TestRaceQuotesSeeNoTornSnapshot hammers lock-free quotes during a
// publish storm. Every segment of one menu must carry one single
// epoch's price (a mix would be a torn snapshot), the epoch must be a
// real one, and each goroutine must observe epochs monotonically
// (atomic pointer loads cannot travel back in time).
func TestRaceQuotesSeeNoTornSnapshot(t *testing.T) {
	const epochs, quoters, quotesEach = 40, 4, 300
	horizon := 8
	net, reqs := raceWorld(t, horizon)
	svc := raceService(t, net, horizon)

	var wg sync.WaitGroup
	errs := make(chan error, quoters+1)
	for g := 0; g < quoters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			last := -1
			for i := 0; i < quotesEach; i++ {
				r := reqs[(g*131+i)%len(reqs)]
				menu := svc.Quote(r, r.Demand)
				if len(menu.Segments) == 0 {
					errs <- fmt.Errorf("quoter %d: empty menu", g)
					return
				}
				k, ok := priceEpoch(menu.Segments[0].Price)
				if !ok || k > epochs {
					errs <- fmt.Errorf("quoter %d: impossible segment price %v", g, menu.Segments[0].Price)
					return
				}
				for _, s := range menu.Segments[1:] {
					if s.Price != menu.Segments[0].Price {
						errs <- fmt.Errorf("quoter %d: torn menu: prices %v and %v in one snapshot",
							g, menu.Segments[0].Price, s.Price)
						return
					}
				}
				if k < last {
					errs <- fmt.Errorf("quoter %d: epoch went backwards: %d after %d", g, k, last)
					return
				}
				last = k
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= epochs; k++ {
			if err := svc.Publish(racePlan(net, horizon, k), false); err != nil {
				errs <- fmt.Errorf("publish %d: %v", k, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := svc.Epoch(); got != epochs {
		t.Fatalf("final epoch %d, want %d", got, epochs)
	}
}

// TestRaceNoStaleEpochCommitAndConservation runs concurrent admitters
// against the publish storm and checks:
//
//   - No stale-epoch commit: an admission's Lambda names the epoch it
//     committed in; that epoch must be at least the one already
//     published when the Admit call began (the pointer only moves
//     under the commit lock the admission then takes).
//   - Conservation across swaps: every admitted byte is in the final
//     drained room and nothing else is — room committed into epoch N
//     carries into N+1, never lost to a clone race.
//   - Room is never negative anywhere.
func TestRaceNoStaleEpochCommitAndConservation(t *testing.T) {
	const epochs, admitters, admitsEach = 30, 4, 200
	horizon := 8
	net, reqs := raceWorld(t, horizon)
	svc := raceService(t, net, horizon)

	var wg sync.WaitGroup
	errs := make(chan error, admitters+1)
	committed := make([]float64, admitters)
	for g := 0; g < admitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sum := 0.0
			for i := 0; i < admitsEach; i++ {
				before := svc.Epoch()
				r := reqs[(g*197+i)%len(reqs)]
				adm := svc.Admit(r)
				if adm == nil {
					errs <- fmt.Errorf("admitter %d: declined with effectively infinite value", g)
					return
				}
				k, ok := priceEpoch(adm.Lambda)
				if !ok || k > epochs {
					errs <- fmt.Errorf("admitter %d: impossible lambda %v", g, adm.Lambda)
					return
				}
				if uint64(k) < before {
					errs <- fmt.Errorf("admitter %d: committed against stale epoch %d, %d was already published", g, k, before)
					return
				}
				for _, al := range adm.Allocs {
					sum += al.Bytes
				}
			}
			committed[g] = sum
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= epochs; k++ {
			if err := svc.Publish(racePlan(net, horizon, k), false); err != nil {
				errs <- fmt.Errorf("publish %d: %v", k, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := svc.DrainState()
	var inRoom, inAdms float64
	for e := range st.Reserved {
		for ts, v := range st.Reserved[e] {
			if v < 0 {
				t.Fatalf("negative room at edge %d step %d: %v", e, ts, v)
			}
			if cap := st.Capacity(graph.EdgeID(e), ts); v > cap+1e-6 {
				t.Fatalf("room overcommitted at edge %d step %d: %v > %v", e, ts, v, cap)
			}
			inRoom += v
		}
	}
	for _, s := range committed {
		inAdms += s
	}
	if diff := math.Abs(inRoom - inAdms); diff > 1e-9*math.Max(1, inAdms) {
		t.Fatalf("bytes not conserved across epoch swaps: admissions committed %v, final room holds %v", inAdms, inRoom)
	}
}

// TestRaceMixedEverything is the kitchen-sink interleaving: quoters,
// admitters, batch replays, drains, and publishes all at once, checked
// only for invariants that hold regardless of schedule. Primarily a
// -race target.
func TestRaceMixedEverything(t *testing.T) {
	const epochs = 15
	horizon := 8
	net, reqs := raceWorld(t, horizon)
	svc := raceService(t, net, horizon)

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r := reqs[(g*37+i)%len(reqs)]
				svc.Quote(r, r.Demand)
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				svc.Admit(reqs[(g*53+i)%len(reqs)])
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			svc.AdmitAll(reqs[(i*7)%len(reqs) : (i*7)%len(reqs)+8])
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			st := svc.DrainState()
			for e := range st.Reserved {
				for ts, v := range st.Reserved[e] {
					if v < 0 {
						panic(fmt.Sprintf("negative room at edge %d step %d: %v", e, ts, v))
					}
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= epochs; k++ {
			if err := svc.Publish(racePlan(net, horizon, k), false); err != nil {
				panic(err)
			}
		}
	}()
	wg.Wait()
	if got := svc.Epoch(); got != epochs {
		t.Fatalf("final epoch %d, want %d", got, epochs)
	}
}

// TestRaceHTTPEpochLabelsTheOperation is the torn-label check over the
// wire: every quote and admit reply carries an epoch number, and with
// each epoch priced distinctly that number must be the epoch the prices
// in the same reply came from — not whatever epoch was current when the
// reply was assembled, which a publish in between makes one too high.
func TestRaceHTTPEpochLabelsTheOperation(t *testing.T) {
	const clients, callsEach = 4, 400
	horizon := 8
	net, reqs := raceWorld(t, horizon)
	svc := raceService(t, net, horizon)
	h := Handler(svc, nil)
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		bodies[i], _ = json.Marshal(wireRequest{
			ID: r.ID, Src: net.Node(r.Src).Name, Dst: net.Node(r.Dst).Name,
			Start: r.Start, End: r.End, Demand: r.Demand, Value: r.Value, MaxRoutes: 1,
		})
	}

	var wg, calling sync.WaitGroup
	errs := make(chan error, clients+1)
	for g := 0; g < clients; g++ {
		calling.Add(1)
		go func(g int) {
			defer calling.Done()
			for i := 0; i < callsEach; i++ {
				body := bodies[(g*131+i)%len(bodies)]
				var label uint64
				var price float64
				if i%4 == 3 {
					rec := post(h, "/v1/admit", body)
					var adm wireAdmitResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &adm); err != nil || rec.Code != http.StatusOK || !adm.Admitted {
						errs <- fmt.Errorf("client %d: admit answered %d %s", g, rec.Code, rec.Body)
						return
					}
					label, price = adm.Epoch, adm.Lambda
				} else {
					rec := post(h, "/v1/quote", body)
					var q wireQuoteResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil || rec.Code != http.StatusOK || len(q.Segments) == 0 {
						errs <- fmt.Errorf("client %d: quote answered %d %s", g, rec.Code, rec.Body)
						return
					}
					label, price = q.Epoch, q.Segments[0].Price
				}
				if k, ok := priceEpoch(price); !ok || uint64(k) != label {
					errs <- fmt.Errorf("client %d: reply labelled epoch %d carries epoch %d's price %v", g, label, k, price)
					return
				}
			}
		}(g)
	}
	// The publisher keeps swapping epochs for as long as anyone is calling.
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := svc.Publish(racePlan(net, horizon, k), false); err != nil {
				errs <- fmt.Errorf("publish %d: %v", k, err)
				return
			}
		}
	}()
	calling.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRaceHTTPPublishEpochsDistinct overlaps publishes over the wire:
// each reply must name the epoch that publish installed, so the numbers
// returned are 1..N with no repeat and no gap. A reply assembled from a
// fresh Epoch() read would repeat the later number of two that overlap.
func TestRaceHTTPPublishEpochsDistinct(t *testing.T) {
	const publishers, each = 4, 25
	horizon := 8
	net, _ := raceWorld(t, horizon)
	h := Handler(raceService(t, net, horizon), nil)
	prices := make([][]float64, net.NumEdges())
	for e := range prices {
		prices[e] = []float64{2}
	}
	bodies := [][]byte{[]byte(`{}`), nil}
	bodies[1], _ = json.Marshal(wirePublishRequest{BasePrice: prices})

	var wg sync.WaitGroup
	got := make([][]uint64, publishers)
	errs := make(chan error, publishers)
	for g := 0; g < publishers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec := post(h, "/v1/publish", bodies[(g+i)%2])
				var reply wireEpochResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || rec.Code != http.StatusOK {
					errs <- fmt.Errorf("publisher %d: answered %d %s", g, rec.Code, rec.Body)
					return
				}
				if n := len(got[g]); n > 0 && reply.Epoch <= got[g][n-1] {
					errs <- fmt.Errorf("publisher %d: epoch %d after %d", g, reply.Epoch, got[g][n-1])
					return
				}
				got[g] = append(got[g], reply.Epoch)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	seen := make([]bool, publishers*each+1)
	for g := range got {
		for _, n := range got[g] {
			if n < 1 || n > publishers*each || seen[n] {
				t.Fatalf("epoch %d reported twice or out of range 1..%d", n, publishers*each)
			}
			seen[n] = true
		}
	}
}

// TestRacePriceOnlyPlanCarriesRoomForward builds every plan the way the
// HTTP front-end does — a DrainState copy with new prices on it — and
// publishes it without adopting its room, while admitters keep
// committing. The plan's own room is stale the moment it is copied;
// what must carry into the next epoch is the live room at the swap,
// admissions landed between the copy and the publish included. Every
// request buys its whole 64-byte demand at any epoch's price, so room is
// a sum of 64s, exact in any order: the drained room must equal a serial
// admitter's over the same requests bit for bit.
func TestRacePriceOnlyPlanCarriesRoomForward(t *testing.T) {
	const epochs, admitters, admitsEach = 30, 4, 200
	horizon := 8
	net, reqs := raceWorld(t, horizon)
	svc := raceService(t, net, horizon)

	var wg sync.WaitGroup
	for g := 0; g < admitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < admitsEach; i++ {
				if svc.Admit(reqs[(g*197+i)%len(reqs)]) == nil {
					t.Errorf("admitter %d: declined with effectively infinite value", g)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= epochs; k++ {
			plan := svc.DrainState()
			if err := plan.SetPricesWindow(0, racePlan(net, horizon, k).BasePrice); err != nil {
				t.Errorf("plan %d: %v", k, err)
				return
			}
			if err := svc.Publish(plan, false); err != nil {
				t.Errorf("publish %d: %v", k, err)
				return
			}
		}
	}()
	wg.Wait()

	serial := pricing.NewState(net, horizon, epochPrice(0))
	serial.Adjust = pricing.AdjustConfig{Threshold: 1, Factor: 1}
	ad := pricing.NewAdmitter(serial)
	for g := 0; g < admitters; g++ {
		for i := 0; i < admitsEach; i++ {
			ad.Admit(reqs[(g*197+i)%len(reqs)])
		}
	}
	got := svc.DrainState()
	for e := range serial.Reserved {
		for ts, want := range serial.Reserved[e] {
			if math.Float64bits(got.Reserved[e][ts]) != math.Float64bits(want) {
				t.Fatalf("edge %d step %d holds %v after the publishes, serial replay %v", e, ts, got.Reserved[e][ts], want)
			}
		}
	}
	// The view froze at the last publish, possibly before the last
	// admission; one more epoch, callers stopped, brings it level.
	if err := svc.Publish(nil, false); err != nil {
		t.Fatalf("final publish: %v", err)
	}
	requireViewMatchesLive(t, svc)
}

// requireViewMatchesLive checks, with every caller stopped, that the
// sealed view is the live state cell for cell: same room, same cached
// price, and — read through a one-cell quote to exhaustion, the only
// way to the cached room from outside pricing — the same menu.
func requireViewMatchesLive(t testing.TB, svc *Service) {
	t.Helper()
	ep := svc.cur.Load()
	if !ep.view.Sealed() || ep.live.Sealed() || !ep.live.Published() {
		t.Fatalf("epoch %d: stages live published=%v sealed=%v, view sealed=%v",
			ep.n, ep.live.Published(), ep.live.Sealed(), ep.view.Sealed())
	}
	for e := range ep.live.Reserved {
		id := graph.EdgeID(e)
		for ts, r := range ep.live.Reserved[e] {
			if math.Float64bits(ep.view.Reserved[e][ts]) != math.Float64bits(r) {
				t.Fatalf("epoch %d: view room at edge %d step %d is %v, live %v", ep.n, e, ts, ep.view.Reserved[e][ts], r)
			}
			if a, b := ep.view.MarginalPrice(id, ts, 0), ep.live.MarginalPrice(id, ts, 0); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("epoch %d: view prices edge %d step %d at %v, live %v", ep.n, e, ts, a, b)
			}
			cell := &traffic.Request{Routes: []graph.Path{{id}}, Start: ts, End: ts, Demand: 1e18}
			a, b := pricing.QuoteMenu(ep.view, cell, cell.Demand), pricing.QuoteMenu(ep.live, cell, cell.Demand)
			if !reflect.DeepEqual(a.Segments, b.Segments) || math.Float64bits(a.Cap()) != math.Float64bits(b.Cap()) {
				t.Fatalf("epoch %d: view quotes edge %d step %d as %+v, live %+v", ep.n, e, ts, a.Segments, b.Segments)
			}
		}
	}
}

// TestPublishedPairSharesNothingMutable walks one service through every
// kind of publish on the tight-capacity fuzz world, with admissions in
// between so that cells sit on both sides of the premium threshold.
// After each publish the view must equal the live state, and a
// DrainState copy must be its own: live and view share their planning
// arrays, and a clone that aliased them would let a planner's edit reach
// the states admissions and quotes are reading.
func TestPublishedPairSharesNothingMutable(t *testing.T) {
	const horizon = 6
	net, templates := fuzzWorld(t, horizon)
	svc, err := New(pricing.NewState(net, horizon, 1.0), Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	requireViewMatchesLive(t, svc)

	admitSome := func(from byte) {
		for j := byte(0); j < 40; j++ {
			r := fuzzRequest(templates, from+j*29, horizon)
			r.Value = 10
			svc.Admit(r)
		}
	}
	dearer := pricing.NewState(net, horizon, 1.5)
	quarter := make([][]float64, net.NumEdges())
	for _, e := range net.Edges() {
		quarter[e.ID] = make([]float64, horizon)
		for t := range quarter[e.ID] {
			quarter[e.ID][t] = e.Capacity * 0.25
		}
	}
	if err := dearer.SetHighPriMatrix(quarter); err != nil {
		t.Fatal(err)
	}
	dearer.SetOutage("cut", 0, 2, 100)
	publishes := []struct {
		name  string
		plan  *pricing.State
		adopt bool
	}{
		{"epoch bump", nil, false},
		{"price only", dearer, false},
		{"re-plan", pricing.NewState(net, horizon, 0.5), true},
		{"epoch bump after a re-plan", nil, false},
	}
	for i, p := range publishes {
		admitSome(byte(i * 7))
		if err := svc.Publish(p.plan, p.adopt); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		requireViewMatchesLive(t, svc)

		ep := svc.cur.Load()
		before := ep.live.Clone()
		dr := svc.DrainState()
		if dr.Published() {
			t.Fatalf("%s: DrainState returned a poisoned state", p.name)
		}
		for e := 0; e < net.NumEdges(); e++ {
			for ts := 0; ts < horizon; ts++ {
				id := graph.EdgeID(e)
				dr.SetBasePrice(id, ts, 99)
				dr.SetHighPri(id, ts, 7)
				dr.SetOutage("drained", id, ts, 5)
				dr.Reserve(graph.Path{id}, ts, 1)
			}
		}
		dr.Adjust = pricing.AdjustConfig{Threshold: 0.1, Factor: 9}
		for _, st := range []*pricing.State{ep.live, ep.view} {
			if !reflect.DeepEqual(st.BasePrice, before.BasePrice) || !reflect.DeepEqual(st.HighPri, before.HighPri) ||
				!reflect.DeepEqual(st.Reserved, before.Reserved) || st.Adjust != before.Adjust {
				t.Fatalf("%s: mutating a DrainState copy reached the published pair", p.name)
			}
			for e := 0; e < net.NumEdges(); e++ {
				for ts := 0; ts < horizon; ts++ {
					if st.OutageAt(graph.EdgeID(e), ts) != before.OutageAt(graph.EdgeID(e), ts) {
						t.Fatalf("%s: a DrainState copy's outage reached the published pair", p.name)
					}
				}
			}
		}
		requireViewMatchesLive(t, svc)
	}
}
