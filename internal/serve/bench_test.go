package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"pretium/internal/graph"
	"pretium/internal/pricing"
	"pretium/internal/traffic"
)

// benchServiceWorld builds a 4-region ring where each ordered region
// pair (i, i+1) owns a disjoint pair of 2-hop routes (src_i -> m ->
// src_{i+1}): requests on different pairs are edge-disjoint. Capacity
// is fat enough that a benchmark run never saturates a cell (no mid-run
// room resets needed — the state stays published the whole time, as in
// production).
func benchServiceWorld(b *testing.B) (*Service, [][]*traffic.Request) {
	b.Helper()
	const pairs, horizon = 4, 16
	net := graph.New()
	hubs := make([]graph.NodeID, pairs)
	for i := range hubs {
		hubs[i] = net.AddNode(fmt.Sprintf("hub%d", i), fmt.Sprintf("region%d", i))
	}
	routesByPair := make([][]graph.Path, pairs)
	for i := range hubs {
		j := (i + 1) % pairs
		m1 := net.AddNode(fmt.Sprintf("mid%da", i), fmt.Sprintf("region%d", i))
		m2 := net.AddNode(fmt.Sprintf("mid%db", i), fmt.Sprintf("region%d", i))
		routesByPair[i] = []graph.Path{
			{net.AddEdge(hubs[i], m1, 1e12), net.AddEdge(m1, hubs[j], 1e12)},
			{net.AddEdge(hubs[i], m2, 1e12), net.AddEdge(m2, hubs[j], 1e12)},
		}
	}
	st := pricing.NewState(net, horizon, 1.0)
	for e := 0; e < net.NumEdges(); e++ {
		for t := 0; t < horizon; t++ {
			st.SetBasePrice(graph.EdgeID(e), t, 1+0.001*float64(e*horizon+t))
		}
	}
	svc, err := New(st, Config{})
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([][]*traffic.Request, pairs)
	for i := range reqs {
		j := (i + 1) % pairs
		reqs[i] = make([]*traffic.Request, 64)
		for k := range reqs[i] {
			start := k % (horizon - 3)
			reqs[i][k] = &traffic.Request{
				ID: i*1000 + k, Src: hubs[i], Dst: hubs[j],
				Routes: routesByPair[i],
				Start:  start, End: start + 3,
				Demand: 30 + float64(k%5)*10, Value: 100,
				Kind: traffic.ByteRequest,
			}
		}
	}
	return svc, reqs
}

func reportOps(b *testing.B) {
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
}

// BenchmarkServiceQuote is the lock-free read path: atomic epoch load
// plus a pooled quote against the sealed view.
func BenchmarkServiceQuote(b *testing.B) {
	svc, reqs := benchServiceWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := reqs[i%4][i%64]
		if m := svc.Quote(r, r.Demand); len(m.Segments) == 0 {
			b.Fatal("empty menu")
		}
	}
	reportOps(b)
}

// BenchmarkServiceAdmit measures the full admission: commit lock,
// authoritative quote, purchase, commit. one_pair keeps every request on
// one region pair's routes; four_pairs cycles over four edge-disjoint
// pairs.
func BenchmarkServiceAdmit(b *testing.B) {
	b.Run("one_pair", func(b *testing.B) {
		svc, reqs := benchServiceWorld(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if svc.Admit(reqs[0][i%64]) == nil {
				b.Fatal("declined")
			}
		}
		reportOps(b)
	})
	b.Run("four_pairs", func(b *testing.B) {
		svc, reqs := benchServiceWorld(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if svc.Admit(reqs[i%4][i%64]) == nil {
				b.Fatal("declined")
			}
		}
		reportOps(b)
	})
}

// BenchmarkServiceMixed is the headline serving mix: 90% non-binding
// quotes, 10% admissions — the closed-loop workload the ops/sec target
// is stated against.
func BenchmarkServiceMixed(b *testing.B) {
	svc, reqs := benchServiceWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := reqs[i%4][i%64]
		if i%10 == 0 {
			svc.Admit(r)
		} else {
			svc.Quote(r, r.Demand)
		}
	}
	reportOps(b)
}

// BenchmarkServicePublish is the epoch swap itself: the successor pair,
// the room carried over, the cache rebuild. It runs once per timestep in
// production, so
// milliseconds are fine; the bench guards against accidental
// quadratic-in-state regressions.
func BenchmarkServicePublish(b *testing.B) {
	svc, _ := benchServiceWorld(b)
	plan := pricing.NewState(svc.Net(), svc.Horizon(), 2.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.Publish(plan, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceHTTPQuote and ...Admit are the wire path with no
// socket under it: serve.Handler on PaperWAN behind an httptest recorder,
// every pair's routes already in the network's memo (the steady state —
// 99% of a replayed stream). allocs/op includes the recorder and the
// request httptest builds per call, so its gate is a ceiling on the
// handler plus a constant.
func benchmarkServiceHTTP(b *testing.B, path string, demand float64) {
	const horizon = 48
	svc := paperService(b, horizon)
	h := Handler(svc, nil)
	wires := paperWire(svc.Net(), horizon, 512, 9)
	bodies := make([][]byte, len(wires))
	for i, wr := range wires {
		wr.Demand, wr.Value, wr.MaxRoutes = demand, 100, 0
		bodies[i], _ = json.Marshal(wr)
		if rec := post(h, "/v1/quote", bodies[i]); rec.Code != http.StatusOK {
			b.Fatalf("warm-up quote %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := post(h, path, bodies[i%len(bodies)]); rec.Code != http.StatusOK {
			b.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
	}
	reportOps(b)
}

func BenchmarkServiceHTTPQuote(b *testing.B) { benchmarkServiceHTTP(b, "/v1/quote", 40) }

// The admit demand is tiny so that a long run never fills a link and
// every iteration takes the accept path.
func BenchmarkServiceHTTPAdmit(b *testing.B) { benchmarkServiceHTTP(b, "/v1/admit", 1e-4) }
