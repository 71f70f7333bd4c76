package sched

import (
	"math"
	"math/rand"
	"testing"

	"pretium/internal/cost"
	"pretium/internal/graph"
	"pretium/internal/lp"
)

// benchScale sizes a synthetic SAM instance. The three scales roughly track
// the experiment harness's Small/Default(Medium)/Paper setups: a small WAN
// with a short horizon, a mid WAN with a day-at-coarse-resolution horizon,
// and a larger WAN with a longer horizon.
type benchScale struct {
	name string
	// regions x perReg parameterize the WAN generator; zero regions selects
	// the fixed 106-node / 226-edge graph.PaperWAN topology and the paper's
	// demand recipe (T=288 is 5-minute steps over a day).
	regions  int
	perReg   int
	horizon  int
	nDemands int
}

func (sc benchScale) paperWAN() bool { return sc.regions == 0 }

var benchScales = []benchScale{
	{name: "Small", regions: 2, perReg: 3, horizon: 12, nDemands: 12},
	{name: "Medium", regions: 3, perReg: 4, horizon: 36, nDemands: 28},
	{name: "Large", regions: 4, perReg: 4, horizon: 48, nDemands: 36},
	{name: "Paper", horizon: 288, nDemands: 400},
}

// benchInstance builds a deterministic SAM-shaped scheduling instance:
// randomized inter-region demands with k-shortest-path route sets over a
// generated WAN, plus percentile cost-proxy rows — the LP shape the SAM
// re-solves every timestep.
func benchInstance(sc benchScale, seed int64) *Instance {
	var net *graph.Network
	if sc.paperWAN() {
		net = graph.PaperWAN(seed)
	} else {
		cfg := graph.DefaultWANConfig()
		cfg.Regions = sc.regions
		cfg.NodesPerRegion = sc.perReg
		cfg.Seed = seed
		net = graph.GenerateWAN(cfg)
	}

	r := rand.New(rand.NewSource(seed + 1))
	nn := net.NumNodes()
	demands := make([]Demand, 0, sc.nDemands)
	for len(demands) < sc.nDemands {
		src := graph.NodeID(r.Intn(nn))
		dst := graph.NodeID(r.Intn(nn))
		if src == dst {
			continue
		}
		routes := net.KShortestPaths(src, dst, 2)
		if len(routes) == 0 {
			continue
		}
		start := r.Intn(sc.horizon / 2)
		end := start + 2 + r.Intn(sc.horizon-start-2)
		if sc.paperWAN() {
			// Deadline-driven windows: transfers must land within 30min–3h
			// of submission (the paper's SLO-class deadlines), not "any time
			// today". Tight windows are also what keeps the LP's
			// alternate-optimum plateau small enough to traverse.
			start = r.Intn(sc.horizon - 8)
			end = start + 6 + r.Intn(30)
			if end > sc.horizon {
				end = sc.horizon
			}
		}
		d := Demand{
			ID:           len(demands),
			Routes:       routes,
			Start:        start,
			End:          end,
			MaxBytes:     (20 + r.Float64()*120) * float64(sc.horizon) / 12,
			ValuePerByte: 0.5 + r.Float64()*2.5,
		}
		if sc.paperWAN() {
			// Production-shaped sizes: most transfers are small next to
			// link capacity (their capacity rows presolve away), with a
			// tail of deadline-constrained elephants that keep a congested
			// core binding.
			if r.Float64() < 0.02 {
				d.MaxBytes = 50 + r.Float64()*100
				if e := start + 12 + r.Intn(24); e < end {
					d.End = e
				}
			} else {
				d.MaxBytes = 1 + r.Float64()*4
			}
			if r.Float64() < 0.1 {
				d.MinBytes = d.MaxBytes * 0.2
			}
		} else if r.Float64() < 0.3 {
			d.MinBytes = d.MaxBytes * 0.2
		}
		demands = append(demands, d)
	}

	capm := make([][]float64, net.NumEdges())
	for _, e := range net.Edges() {
		capm[e.ID] = make([]float64, sc.horizon)
		for t := range capm[e.ID] {
			capm[e.ID][t] = e.Capacity * 0.8
		}
	}
	ccfg := cost.DefaultConfig(sc.horizon)
	if sc.paperWAN() {
		// Hourly charging windows at 5-minute resolution: k = 1 per
		// window, so the percentile proxy uses the cheap max-form rows
		// instead of a sorting network per window.
		ccfg.WindowLen = 12
	}
	return &Instance{
		Net:          net,
		Horizon:      sc.horizon,
		Capacity:     capm,
		Demands:      demands,
		Cost:         ccfg,
		UseCostProxy: true,
	}
}

// reportPhases publishes the last solve's per-phase wall-clock breakdown as
// bench metrics, so BENCH_solver.json localizes a ns/op regression to the
// solver phase that moved (pricing scan, FTRAN, BTRAN, refactorization, or
// devex pivot-row assembly).
func reportPhases(b *testing.B, p lp.PhaseTimings) {
	b.ReportMetric(float64(p.PricingNs), "pricing_ns")
	b.ReportMetric(float64(p.FtranNs), "ftran_ns")
	b.ReportMetric(float64(p.BtranNs), "btran_ns")
	b.ReportMetric(float64(p.RefactorNs), "refactor_ns")
	b.ReportMetric(float64(p.RowNs), "row_ns")
}

// BenchmarkSAMSolve measures Instance.Solve (model build + LP solve, the
// per-timestep SAM cost) across scales. The sub-benchmarks keep the
// "/sparse" suffix CI's gates and BENCH_solver.json's trajectory are keyed
// on (it once told the production kernel from the dense reference).
func BenchmarkSAMSolve(b *testing.B) {
	for _, sc := range benchScales {
		ins := benchInstance(sc, 42)
		b.Run(sc.name+"/sparse", func(b *testing.B) {
			var stats lp.SolveStats
			b.ReportAllocs()
			if !sc.paperWAN() {
				// One untimed solve first, as the previous step's solve is
				// in a control loop: it leaves a kernel of this size on
				// lp's free list, so allocs/op and B/op read the steady
				// state CI gates on Medium. (A Paper solve would cost
				// seconds and run on a kernel the free list never holds.)
				if _, err := ins.Solve(lp.Options{}); err != nil {
					b.Fatalf("Solve: %v", err)
				}
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				stats = lp.SolveStats{}
				res, err := ins.Solve(lp.Options{Stats: &stats})
				if err != nil {
					b.Fatalf("Solve: %v", err)
				}
				if res.Status != lp.Optimal {
					b.Fatalf("status %v", res.Status)
				}
			}
			b.ReportMetric(float64(stats.Iterations), "pivots")
			b.ReportMetric(float64(stats.Refactorizations), "refactors")
			b.ReportMetric(float64(stats.Artificials), "artificials")
			b.ReportMetric(float64(stats.Recoveries), "recoveries")
			reportPhases(b, stats.Timings)
		})
		if sc.paperWAN() {
			// The telemetry-overhead sub-bench exists to bound the
			// Stats hook's cost, which the mid scales already measure;
			// repeating a Paper cold solve for it buys nothing.
			continue
		}
		b.Run(sc.name+"/sparse-obs", func(b *testing.B) {
			// Solver telemetry enabled (lp.Options.Stats): the
			// acceptance bar is <5% over the plain solve.
			var stats lp.SolveStats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := ins.Solve(lp.Options{Stats: &stats})
				if err != nil {
					b.Fatalf("Solve: %v", err)
				}
				if res.Status != lp.Optimal {
					b.Fatalf("status %v", res.Status)
				}
			}
			if stats.Solves != b.N {
				b.Fatalf("stats recorded %d solves, want %d", stats.Solves, b.N)
			}
		})
	}
}

// TestMediumLPCounters pins the Medium instance's simplex work as exact
// integers and its objective to the bit: a small-model cold solve long
// enough for the eta file to grow and refactorize 33 times, then a warm
// re-solve from its basis, which refactorizes the captured columns once and
// pivots no more, to the cold solve's objective bits. A change that claims
// to move no float leaves every number here alone.
func TestMediumLPCounters(t *testing.T) {
	built, err := benchInstance(benchScales[1], 42).Build()
	if err != nil {
		t.Fatal(err)
	}
	var stats lp.SolveStats
	cold, err := built.Solve(lp.Options{Stats: &stats})
	if err != nil || cold.Status != lp.Optimal {
		t.Fatalf("cold solve: %v %v", err, cold.Status)
	}
	if cold.Iterations != 3468 || cold.Refactors != 33 || stats.Artificials != 688 {
		t.Errorf("cold: %d pivots, %d refactors, %d artificials; want 3468, 33, 688",
			cold.Iterations, cold.Refactors, stats.Artificials)
	}
	if got := math.Float64bits(cold.Objective); got != 0x40c4d5221fa93f07 {
		t.Errorf("cold objective %v (bits %#x), want bits 0x40c4d5221fa93f07", cold.Objective, got)
	}
	stats = lp.SolveStats{}
	warm, err := built.Solve(lp.Options{WarmBasis: cold.Basis, Stats: &stats})
	if err != nil || warm.Status != lp.Optimal {
		t.Fatalf("warm solve: %v %v", err, warm.Status)
	}
	if warm.Iterations != 0 || warm.Refactors != 1 || stats.Artificials != 0 {
		t.Errorf("warm: %d pivots, %d refactors, %d artificials; want 0, 1, 0",
			warm.Iterations, warm.Refactors, stats.Artificials)
	}
	if got, want := math.Float64bits(warm.Objective), math.Float64bits(cold.Objective); got != want {
		t.Errorf("warm objective %v (bits %#x), want the cold solve's bits %#x", warm.Objective, got, want)
	}
}

// TestLargeLPCounters is TestMediumLPCounters for the large-model path: the
// Large instance standardizes past lp.LargeModelRows, so it builds with
// implicit bounds, presolves, and pivots on the Forrest–Tomlin kernel. The
// cold solve refactorizes on measured update fill; the warm re-solve takes
// over the captured factorization and pivots a few more times.
func TestLargeLPCounters(t *testing.T) {
	built, err := benchInstance(benchScales[2], 42).Build()
	if err != nil {
		t.Fatal(err)
	}
	var stats lp.SolveStats
	cold, err := built.Solve(lp.Options{Stats: &stats})
	if err != nil || cold.Status != lp.Optimal {
		t.Fatalf("cold solve: %v %v", err, cold.Status)
	}
	if cold.Iterations != 4926 || cold.Refactors != 3 || stats.Artificials != 1699 {
		t.Errorf("cold: %d pivots, %d refactors, %d artificials; want 4926, 3, 1699",
			cold.Iterations, cold.Refactors, stats.Artificials)
	}
	if got := math.Float64bits(cold.Objective); got != 0x40d120eb7ad85bad {
		t.Errorf("cold objective %v (bits %#x), want bits 0x40d120eb7ad85bad", cold.Objective, got)
	}
	warm, err := built.Solve(lp.Options{WarmBasis: cold.Basis})
	if err != nil || warm.Status != lp.Optimal {
		t.Fatalf("warm solve: %v %v", err, warm.Status)
	}
	if warm.Iterations != 5 {
		t.Errorf("warm: %d pivots, want 5", warm.Iterations)
	}
	if got := math.Float64bits(warm.Objective); got != 0x40d120eb7abf6698 {
		t.Errorf("warm objective %v (bits %#x), want bits 0x40d120eb7abf6698", warm.Objective, got)
	}
}

// TestLargeWarmChainCounters pins a chain of warm steps on the large-model
// path, the shape of a SAM step that re-prices a retained model: from the
// Large instance's cold solve, eight steps each rescale every demand's value
// by a deterministic factor, Rebind and solve from the previous step's
// basis, and a ninth re-solves the last step unchanged, so a capture that
// took no pivot is installed again. Every step keeps its presolve reduction
// (only the objective moves, and no value changes sign), so the chain runs
// the presolve reuse, the borrowed factor views and their first-update
// copies; a copy that lost the spike stash moves these bits.
func TestLargeWarmChainCounters(t *testing.T) {
	base := benchInstance(benchScales[2], 42)
	built, err := base.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := built.Solve(lp.Options{})
	if err != nil || res.Status != lp.Optimal {
		t.Fatalf("cold solve: %v %v", err, res.Status)
	}
	if res.Iterations != 4926 {
		t.Fatalf("cold: %d pivots, want 4926", res.Iterations)
	}
	want := []struct {
		pivots int
		bits   uint64
	}{
		{320, 0x40bea90d833dc59f},
		{80, 0x40c579ed058683d5},
		{0, 0x40c33ccc49652daf},
		{0, 0x40c386645dbf42e5},
		{0, 0x40c1447bd178d0eb},
		{66, 0x40bce274e357bbc8},
		{117, 0x40bfd15655c1b648},
		{111, 0x40c0657412982b94},
		{0, 0x40c0657412982b92}, // the unchanged re-solve
	}
	var stats lp.SolveStats
	ins := base
	for step, w := range want {
		if step < 8 {
			r := rand.New(rand.NewSource(int64(7 + step)))
			next := *base
			next.Demands = append([]Demand(nil), base.Demands...)
			for i := range next.Demands {
				next.Demands[i].ValuePerByte *= 0.02 + 2*r.Float64()*r.Float64()
			}
			ins = &next
		}
		if err := built.Rebind(ins); err != nil {
			t.Fatalf("step %d: Rebind: %v", step, err)
		}
		res, err = built.Solve(lp.Options{WarmBasis: res.Basis, Stats: &stats})
		if err != nil || res.Status != lp.Optimal {
			t.Fatalf("step %d: %v %v", step, err, res.Status)
		}
		if res.Iterations != w.pivots || math.Float64bits(res.Objective) != w.bits {
			t.Errorf("step %d: %d pivots, objective bits %#x; want %d, %#x",
				step, res.Iterations, math.Float64bits(res.Objective), w.pivots, w.bits)
		}
	}
	if stats.WarmStarts != len(want) {
		t.Errorf("%d of %d steps started warm", stats.WarmStarts, len(want))
	}
}

// BenchmarkSAMResolveWarm measures the warm-started re-solve path: the
// same model solved again from its previous optimal basis.
func BenchmarkSAMResolveWarm(b *testing.B) {
	for _, sc := range benchScales {
		if sc.name == "Large" {
			continue // the cold benches cover it; warm adds nothing new there
		}
		b.Run(sc.name+"/sparse", func(b *testing.B) {
			ins := benchInstance(sc, 42)
			built, err := ins.Build()
			if err != nil {
				b.Fatalf("Build: %v", err)
			}
			cold, err := built.Solve(lp.Options{})
			if err != nil || cold.Status != lp.Optimal {
				b.Fatalf("cold solve: %v %v", err, cold.Status)
			}
			basis := cold.Basis
			var stats lp.SolveStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stats = lp.SolveStats{}
				res, err := built.Solve(lp.Options{WarmBasis: basis, Stats: &stats})
				if err != nil {
					b.Fatalf("warm solve: %v", err)
				}
				if res.Status != lp.Optimal {
					b.Fatalf("warm status %v", res.Status)
				}
				basis = res.Basis
			}
			b.ReportMetric(float64(stats.Iterations), "pivots")
			b.ReportMetric(float64(stats.Refactorizations), "refactors")
			reportPhases(b, stats.Timings)
		})
	}
}
