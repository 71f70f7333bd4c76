package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
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
// between every ordered pair, so every request is single-edge and every
// (src, dst) pair is its own shard class.
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

func raceService(t testing.TB, net *graph.Network, horizon, shards int) *Service {
	t.Helper()
	st := pricing.NewState(net, horizon, epochPrice(0))
	st.Adjust = pricing.AdjustConfig{Threshold: 1, Factor: 1}
	svc, err := New(st, Config{Shards: shards})
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
	svc := raceService(t, net, horizon, 4)

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
//     published when the Admit call began (the drain barrier swapped
//     the pointer before letting later tickets run).
//   - Conservation across swaps: every admitted byte is in the final
//     drained room and nothing else is — room committed into epoch N
//     carries into N+1, never lost to a clone race.
//   - Room is never negative anywhere.
func TestRaceNoStaleEpochCommitAndConservation(t *testing.T) {
	const epochs, admitters, admitsEach = 30, 4, 200
	horizon := 8
	net, reqs := raceWorld(t, horizon)
	svc := raceService(t, net, horizon, 4)

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
	svc := raceService(t, net, horizon, 8)

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
	svc := raceService(t, net, horizon, 4)
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
