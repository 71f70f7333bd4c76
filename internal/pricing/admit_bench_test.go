package pricing

import (
	"fmt"
	"testing"

	"pretium/internal/graph"
	"pretium/internal/obs"
	"pretium/internal/traffic"
)

// benchQuoteWorld builds R parallel 2-hop routes (src -> m_i -> dst,
// 2R edges) over a T-step horizon, with per-(edge, t) base prices all
// distinct so segments never merge: quoting to exhaustion walks the full
// ~2·R·T segment schedule (base + premium per candidate). This is the
// wide-window shape the admission fast path is built for.
func benchQuoteWorld(R, T int) (*State, *traffic.Request) {
	n := graph.New()
	src := n.AddNode("src", "r")
	dst := n.AddNode("dst", "r")
	routes := make([]graph.Path, R)
	for i := 0; i < R; i++ {
		mid := n.AddNode(fmt.Sprintf("m%d", i), "r")
		e1 := n.AddEdge(src, mid, 100)
		e2 := n.AddEdge(mid, dst, 100)
		routes[i] = graph.Path{e1, e2}
	}
	st := NewState(n, T, 1)
	for e := 0; e < n.NumEdges(); e++ {
		for t := 0; t < T; t++ {
			st.SetBasePrice(graph.EdgeID(e), t, 1+0.001*float64(e*T+t))
		}
	}
	req := &traffic.Request{
		Src: src, Dst: dst, Routes: routes,
		Start: 0, End: T - 1,
		Demand: 1e12, Value: 1e12,
	}
	return st, req
}

// paperQuoteWorld is the quote real traffic makes: the paper's WAN over
// a 288-step day with uneven base prices, three shortest routes between
// two distant nodes, a 36-step window, and a demand well inside the
// cheapest candidate's room, so the menu is the one-segment fast path.
func paperQuoteWorld() (*State, *traffic.Request) {
	const T = 288
	n := graph.PaperWAN(1)
	st := NewState(n, T, 1)
	for e := 0; e < n.NumEdges(); e++ {
		for t := 0; t < T; t++ {
			st.SetBasePrice(graph.EdgeID(e), t, 1+0.01*float64((e*7+t*3)%17))
		}
	}
	src, dst := graph.NodeID(0), graph.NodeID(n.NumNodes()-1)
	req := &traffic.Request{
		Src: src, Dst: dst, Routes: n.KShortestPaths(src, dst, 3),
		Start: 100, End: 135,
		Demand: 10, Value: 100,
	}
	return st, req
}

// BenchmarkQuoteMenu compares the heap engine against the reference scan
// at a small scale (2 routes x 6 steps, the Small experiment shape) and
// the wide-window scale (8 routes x 48 steps), quoting each time to
// network exhaustion, and at the paper's scale (3 routes x 36 steps on
// PaperWAN), quoting a demand the one-segment fast path serves.
func BenchmarkQuoteMenu(b *testing.B) {
	for _, sc := range []struct {
		name  string
		world func() (*State, *traffic.Request)
	}{
		{"small", func() (*State, *traffic.Request) { return benchQuoteWorld(2, 6) }},
		{"wide", func() (*State, *traffic.Request) { return benchQuoteWorld(8, 48) }},
		{"paper", paperQuoteWorld},
	} {
		st, req := sc.world()
		want := len(quoteMenuReference(st, req, req.Demand).Segments)
		if sc.name == "paper" && (len(req.Routes) != 3 || want != 1) {
			b.Fatalf("paper: %d routes, %d segments; want 3 routes and a one-segment menu", len(req.Routes), want)
		}
		b.Run(sc.name+"/heap", func(b *testing.B) {
			var q Quoter
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if m := q.Quote(st, req, req.Demand); len(m.Segments) != want {
					b.Fatalf("got %d segments, want %d", len(m.Segments), want)
				}
			}
		})
		b.Run(sc.name+"/heap-obs", func(b *testing.B) {
			// Telemetry enabled: the acceptance bar is <5% over plain heap.
			var q Quoter
			q.SetObs(obs.NewMetrics())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if m := q.Quote(st, req, req.Demand); len(m.Segments) != want {
					b.Fatalf("got %d segments, want %d", len(m.Segments), want)
				}
			}
		})
		b.Run(sc.name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if m := quoteMenuReference(st, req, req.Demand); len(m.Segments) != want {
					b.Fatalf("got %d segments, want %d", len(m.Segments), want)
				}
			}
		})
	}
}

// benchArrivals builds a cycling stream of modest admissible requests
// for steady-state admission benchmarks.
func benchArrivals(st *State, routes []graph.Path, n int) []*traffic.Request {
	src := graph.NodeID(0)
	dst := graph.NodeID(1)
	reqs := make([]*traffic.Request, n)
	for i := range reqs {
		start := i % st.Horizon
		end := start + 4
		if end >= st.Horizon {
			end = st.Horizon - 1
		}
		reqs[i] = &traffic.Request{
			Src: src, Dst: dst, Routes: routes,
			Start: start, End: end,
			Demand: 30 + float64(i%5)*10, Value: 100,
		}
	}
	return reqs
}

// BenchmarkAdmit measures steady-state Admitter serving: quote, purchase
// rule, and commit per arrival, with the reservation plan reset
// periodically so the network never saturates permanently. Allocations
// per op should be O(segments of the emitted menu) — the quoting scratch
// itself is reused.
func BenchmarkAdmit(b *testing.B) {
	st, req := benchQuoteWorld(8, 48)
	reqs := benchArrivals(st, req.Routes, 64)
	zero := make([][]float64, st.Net.NumEdges())
	for e := range zero {
		zero[e] = make([]float64, st.Horizon)
	}
	ad := NewAdmitter(st)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%256 == 0 {
			if err := st.SetReserved(zero); err != nil {
				b.Fatal(err)
			}
		}
		ad.Admit(reqs[i%len(reqs)])
	}
}

// BenchmarkAdmitParallel serves shards in parallel — one State+Admitter
// per goroutine, as the Admitter contract requires.
func BenchmarkAdmitParallel(b *testing.B) {
	proto, req := benchQuoteWorld(8, 48)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		st := cloneState(proto)
		reqs := benchArrivals(st, req.Routes, 64)
		zero := make([][]float64, st.Net.NumEdges())
		for e := range zero {
			zero[e] = make([]float64, st.Horizon)
		}
		ad := NewAdmitter(st)
		i := 0
		for pb.Next() {
			if i%256 == 0 {
				if err := st.SetReserved(zero); err != nil {
					b.Fatal(err)
				}
			}
			ad.Admit(reqs[i%len(reqs)])
			i++
		}
	})
}
