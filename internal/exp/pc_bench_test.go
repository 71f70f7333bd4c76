package exp

import (
	"sync"
	"testing"

	"pretium/internal/core"
	"pretium/internal/graph"
	"pretium/internal/lp"
	"pretium/internal/pricing"
)

// pcWindow is the Price Computer input BenchmarkPriceComputer solves.
type pcWindow struct {
	net      *graph.Network
	history  []pricing.HistoryEntry
	capacity [][]float64
	cfg      pricing.ComputerConfig
}

var (
	pcOnce  sync.Once
	pcInput pcWindow
	pcErr   error
)

// dayOneWindow builds the window once: Default() stretched to 4 regions × 4
// nodes (the loop-wan16 benchmark workload's topology) over one 24-step
// day, run through the controller as it ships; the history is the day's
// admitted requests with the bytes they were delivered and the marginal
// prices they accepted, which is what the controller's own history holds.
func dayOneWindow() (pcWindow, error) {
	pcOnce.Do(func() {
		const day = 24
		sc := Default()
		sc.Name, sc.Regions, sc.NodesPerRegion, sc.Steps, sc.StepsPerDay = "wan16", 4, 4, day, day
		s := NewSetup(sc)
		ctl, err := core.New(s.Net, s.Requests, s.PretiumConfig())
		if err != nil {
			pcErr = err
			return
		}
		out, err := ctl.Run()
		if err != nil {
			pcErr = err
			return
		}
		w := pcWindow{net: s.Net}
		for i, q := range s.Requests {
			if ctl.Admitted[i] && out.Delivered[i] > 0 {
				w.history = append(w.history, pricing.HistoryEntry{
					Routes: q.Routes, Start: q.Start, End: min(q.End, day-1),
					Bytes: out.Delivered[i], Lambda: ctl.AdmissionPrice[i],
				})
			}
		}
		w.capacity = make([][]float64, s.Net.NumEdges())
		for e := range w.capacity {
			w.capacity[e] = make([]float64, day)
			for t := range w.capacity[e] {
				w.capacity[e][t] = s.Net.Edge(graph.EdgeID(e)).Capacity
			}
		}
		pcfg := s.PretiumConfig()
		w.cfg = pricing.ComputerConfig{WindowLen: day, Cost: pcfg.Cost, MinPrice: pcfg.MinPrice, CostFloorFrac: 1}
		pcInput = w
	})
	return pcInput, pcErr
}

// BenchmarkPriceComputer times one Price Computer window re-solve: the
// offline welfare LP whose capacity duals become the next window's prices,
// at loop-wan16's size (see dayOneWindow). It reports the solve's pivots
// and the picks and priced columns of Bland's rule, which that LP's
// degenerate plateaus run on.
func BenchmarkPriceComputer(b *testing.B) {
	w, err := dayOneWindow()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var stats lp.SolveStats
	for i := 0; i < b.N; i++ {
		stats = lp.SolveStats{}
		cfg := w.cfg
		cfg.Solver.Stats = &stats
		if _, err := pricing.ComputePrices(w.net, w.history, w.capacity, len(w.capacity[0]), 0, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stats.Iterations), "pivots")
	b.ReportMetric(float64(stats.BlandPicks), "bland_picks")
	b.ReportMetric(float64(stats.BlandPriced), "bland_priced")
}
