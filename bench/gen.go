package main

import (
	"encoding/json"
	"math/rand"
	"time"

	"pretium/internal/cost"
	"pretium/internal/exp"
	"pretium/internal/graph"
	"pretium/internal/obs"
	"pretium/internal/sched"
	"pretium/internal/stats"
	"pretium/internal/traffic"
)

// The generators below turn a seed into a workload's inputs and hand the
// program nothing else. Sizes, mixes and durations are constants: they
// are the same on both sides of any comparison.
//
// What the seed may change differs per workload, for one reason. The
// benchmark is accepted only if ten runs on ten seeds agree to within
// each metric's bound. An LP's solve time follows its pivot count, and
// that moves by a factor of two between instances drawn from different
// seeds (loop-wan16: 11 s at topology seed 1, 25 s at seed 2; sam-paper:
// 27k to 38k cold pivots over four seeds). So topology and traffic
// matrix are constants everywhere, and the seed re-draws only what
// leaves the amount of work in place: customers' values by a hair on
// loop-wan16, nothing at all on sam-paper, the whole request stream on
// the two admission workloads, where twenty thousand requests average it
// out. README.md, "What the seed changes", has the measurements.

// ---- loop-wan16 ----

const (
	loopBaseSeed = 1 // topology, traffic matrix and request stream
	loopSteps    = 96
	// loopValueJitter is how far the seed moves each customer's private
	// value. A fifth of a percent flips a few purchase decisions at the
	// margin, which is enough to send the run down a different pivot
	// path, and moves total pivots by about a percent.
	loopValueJitter = 0.002
)

// wan16 is exp.Default() stretched to 4 regions × 4 nodes (16 nodes, 64
// edges) and 4 days of 24 steps: the largest instance on which the
// controller's default path (explicit rows, no presolve) stays healthy.
func wan16() exp.Scale {
	sc := exp.Default()
	sc.Name = "wan16"
	sc.Regions = 4
	sc.NodesPerRegion = 4
	sc.Steps = loopSteps
	sc.StepsPerDay = 24
	return sc
}

// genLoop builds the controller's input. rec is attached to the setup so
// that a traced pass gets the controller's own counters; nil leaves
// observability off.
func genLoop(seed int64, rec *obs.Recorder) *exp.Setup {
	s := exp.NewSetup(wan16(), exp.WithSeed(loopBaseSeed), exp.WithLoad(1), exp.WithObs(rec))
	r := rand.New(rand.NewSource(seed))
	for _, q := range s.Requests {
		q.Value *= 1 + loopValueJitter*(2*r.Float64()-1)
	}
	return s
}

// ---- sam-paper ----

const (
	samBaseSeed   = 42 // the seed internal/sched/bench_test.go benches "Paper" at
	samHorizon    = 288
	samDemands    = 400
	samWarmSteps  = 48
	samCapShare   = 0.8
	samCostWindow = 12 // hourly charging windows at 5-minute steps
	// A warm step re-draws every demand's value per byte as its step-0
	// value times a factor in [1-samValueSwing, 1+samValueSwing] that
	// depends on the step alone.
	samValueSwing = 0.75
	// The rolling step of the traced pass moves every capacity by up to
	// ±samCapJitter.
	samCapJitter = 0.05
)

// samBase is the step-0 instance and the data warm steps derive from.
type samBase struct {
	net     *graph.Network
	demands []sched.Demand
	cost    cost.Config
}

// genSAM rebuilds the "Paper" recipe of internal/sched/bench_test.go
// (a _test.go file cannot be imported): graph.PaperWAN, T=288, 400
// demands with deadline-driven windows of 6–36 steps, a 2% tail of
// elephants, a tenth of demands carrying a 20% guarantee.
func genSAM(tr *tracer) *samBase {
	sp := tr.begin("graph", "PaperWAN", 0)
	net := graph.PaperWAN(samBaseSeed)
	tr.end(sp)
	r := rand.New(rand.NewSource(samBaseSeed + 1))
	nn := net.NumNodes()
	demands := make([]sched.Demand, 0, samDemands)
	for len(demands) < samDemands {
		src := graph.NodeID(r.Intn(nn))
		dst := graph.NodeID(r.Intn(nn))
		if src == dst {
			continue
		}
		routes := net.KShortestPaths(src, dst, 2)
		if len(routes) == 0 {
			continue
		}
		// Two draws the original recipe makes for its smaller scales and
		// overrides at this one; kept so the stream stays in step with it.
		s0 := r.Intn(samHorizon / 2)
		r.Intn(samHorizon - s0 - 2)
		start := r.Intn(samHorizon - 8)
		end := start + 6 + r.Intn(30)
		if end > samHorizon {
			end = samHorizon
		}
		r.Float64() // the smaller scales' size draw, overridden below
		d := sched.Demand{
			ID: len(demands), Routes: routes, Start: start, End: end,
			ValuePerByte: 0.5 + r.Float64()*2.5,
		}
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
		demands = append(demands, d)
	}
	ccfg := cost.DefaultConfig(samHorizon)
	ccfg.WindowLen = samCostWindow
	return &samBase{net: net, demands: demands, cost: ccfg}
}

// instance returns the step-0 problem with its own copies of capacity
// and demands: nominal capacities, nothing sent yet.
func (b *samBase) instance() *sched.Instance {
	capm := make([][]float64, b.net.NumEdges())
	for _, e := range b.net.Edges() {
		row := make([]float64, samHorizon)
		for i := range row {
			row[i] = e.Capacity * samCapShare
		}
		capm[e.ID] = row
	}
	ins := &sched.Instance{
		Net: b.net, Horizon: samHorizon, Capacity: capm,
		Demands: append([]sched.Demand(nil), b.demands...),
		Cost:    b.cost, UseCostProxy: true,
	}
	optIn(ins, "ImplicitBounds", true)
	return ins
}

// step returns the scheduling instance of warm step t: a pure function of
// t, never of an earlier solution, so that its optimal objective is a
// constant any correct solver reproduces. Step 0 is the nominal instance. A later step is the
// same problem after the Price Computer has moved the value proxies λ_i:
// every demand's value per byte is re-drawn around its step-0 value.
// Only the objective changes, which is the one kind of change after
// which the solver keeps the previous step's basis (see rolling).
func (b *samBase) step(t int) *sched.Instance {
	ins := b.instance()
	if t == 0 {
		return ins
	}
	swing := rand.New(rand.NewSource(samBaseSeed*1_000_003 + int64(t)))
	for i := range ins.Demands {
		ins.Demands[i].ValuePerByte *= 1 + samValueSwing*(2*swing.Float64()-1)
	}
	return ins
}

// rolling returns the problem one timestep on, the way the controller's
// incremental SAM path would pose it: planning starts at step 1, every
// capacity has moved by up to ±5%, and each demand has been drained at a
// constant rate across its window. It is the step the roadmap's "warm
// SAM step" target is about, and today it is not warm: moving StartStep
// or a capacity changes which rows presolve drops, the previous basis no
// longer fits the reduced model, and the solve starts cold (README.md,
// "What sam-paper's warm steps are"). The traced pass times this one
// step, which does not depend on the seed, as a per-layer diagnostic.
func (b *samBase) rolling() *sched.Instance {
	const t = 1
	ins := b.instance()
	ins.StartStep = t
	r := rand.New(rand.NewSource(samBaseSeed*1_000_003 - t))
	for _, row := range ins.Capacity {
		for i := range row {
			row[i] *= 1 + samCapJitter*(2*r.Float64()-1)
		}
	}
	for i := range ins.Demands {
		d := &ins.Demands[i]
		window := d.End - d.Start + 1
		elapsed := min(t-d.Start, window)
		if elapsed <= 0 {
			continue
		}
		sent := d.MaxBytes * float64(elapsed) / float64(window)
		d.MaxBytes = max(d.MaxBytes-sent, 0)
		d.MinBytes = max(d.MinBytes-sent, 0)
	}
	return ins
}

// ---- admit-paper, admit-http ----

const (
	admitBaseSeed  = 1 // topology and traffic matrix
	admitHorizon   = 288
	admitBasePrice = 0.2
	admitRoutes    = 3
	// One op in admitEvery is a binding admit, the rest are quotes.
	admitEvery = 10
	// Worker 0 installs a fresh plan every admitPublishEvery of its own
	// ops: SAM's re-plan handing room back. Without it the links fill in
	// the first second and the rest of the run measures declines.
	admitPublishEvery = 20_000
	// admitPrefix requests go through the service one at a time before
	// the timed region and must match a serial pricing.Admitter
	// decision for decision.
	admitPrefix = 5_000
)

// admitInput is the request stream both admission workloads replay.
type admitInput struct {
	net  *graph.Network
	reqs []*traffic.Request
	// generateMS and synthesizeMS time the two traffic calls; buildMS
	// the topology.
	buildMS, generateMS, synthesizeMS float64
}

// genAdmit draws the request stream from the seed: about twenty thousand
// byte requests between the 212 active node pairs of the paper-sized WAN,
// three candidate routes each, windows of 6 to 36 steps, each request's
// size, value, deadline and arrival the seed's. Topology and traffic
// matrix are constants: which handful of pairs is active decides how
// many requests stay inside a region, intra-region requests are the ones
// mostly bought, and with the matrix drawn from the seed too the accept
// share ran from 47% to 61% over ten seeds and the value bought moved by
// a tenth. Values are drawn so that a request's value is of the order of
// its route's price: intra-region routes cost 0.4 a byte and are mostly
// bought, routes over two or three usage-priced backbone links cost 2 to
// 5 and are mostly declined.
func genAdmit(seed int64, tr *tracer) *admitInput {
	in := &admitInput{}
	sp := tr.begin("graph", "PaperWAN", 0)
	t0 := time.Now()
	in.net = graph.PaperWAN(admitBaseSeed)
	in.buildMS = sinceMS(t0)
	tr.end(sp)

	gc := traffic.DefaultGenConfig(admitHorizon)
	gc.StepsPerDay = admitHorizon
	gc.PairActiveFraction = 0.018
	gc.BaseDemand = 1
	gc.Seed = admitBaseSeed + 100
	sp = tr.begin("traffic", "Generate", 0)
	t0 = time.Now()
	series := traffic.Generate(in.net, gc)
	in.generateMS = sinceMS(t0)
	tr.end(sp)

	rc := traffic.DefaultRequestConfig()
	rc.MeanSize = 12
	rc.ValueDist = stats.Normal{Mu: 2.0, Sigma: 1.2, Floor: 0.05}
	rc.SlackDist = stats.Exponential{MeanVal: 10}
	rc.MaxSlack = 30
	rc.AggregateSteps = 5
	rc.RoutesPerRequest = admitRoutes
	rc.Seed = seed + 200
	sp = tr.begin("traffic", "Synthesize", 0)
	t0 = time.Now()
	in.reqs = traffic.Synthesize(in.net, series, rc)
	in.synthesizeMS = sinceMS(t0)
	tr.end(sp)
	return in
}

// wireBodies pre-marshals the stream in the HTTP front-end's request
// form, so the timed loop only sends bytes.
func (in *admitInput) wireBodies() [][]byte {
	type wire struct {
		ID     int     `json:"id"`
		Src    string  `json:"src"`
		Dst    string  `json:"dst"`
		Start  int     `json:"start"`
		End    int     `json:"end"`
		Demand float64 `json:"demand"`
		Value  float64 `json:"value"`
	}
	out := make([][]byte, len(in.reqs))
	for i, r := range in.reqs {
		b, err := json.Marshal(wire{
			ID: r.ID, Src: in.net.Node(r.Src).Name, Dst: in.net.Node(r.Dst).Name,
			Start: r.Start, End: r.End, Demand: r.Demand, Value: r.Value,
		})
		if err != nil {
			panic(err)
		}
		out[i] = b
	}
	return out
}
