// Package exp contains the experiment harness: one function per table and
// figure of the paper's evaluation (§6), each returning the printable
// series/rows it reports. cmd/experiments and the root benchmarks are thin
// wrappers over this package; every experiment is deterministic given its
// Scale and seed.
package exp

import (
	"fmt"

	"pretium/internal/cost"
	"pretium/internal/graph"
	"pretium/internal/obs"
	"pretium/internal/stats"
	"pretium/internal/traffic"
)

// Observe is the default observability recorder attached to every Setup
// created by NewSetup (overridable per setup with WithObs). cmd/experiments
// sets it from the -trace/-metrics flags before launching experiments.
// Metrics aggregate safely across concurrent experiments (the registry is
// atomic), but trace event *interleaving* across concurrent runs is
// scheduler-dependent — for a byte-deterministic stream run a single
// experiment, or give each run its own Recorder via WithObs.
var Observe *obs.Recorder

// Scale selects the experiment size. The paper runs a 106-node WAN with
// 5-minute timesteps and Gurobi; our exact-but-slower simplex reproduces
// the same pipeline at reduced scale (see DESIGN.md substitution table).
type Scale struct {
	Name           string
	Regions        int
	NodesPerRegion int
	// Steps is the simulated horizon; StepsPerDay the diurnal period and
	// pricing/charging window.
	Steps       int
	StepsPerDay int
	// MeanRequestSize controls request count (volume / size).
	MeanRequestSize float64
	// AggregateSteps groups this many timesteps of matrix volume into
	// each request (controls request count at fixed traffic volume).
	AggregateSteps int
	// RoutesPerRequest is the admissible-route fan-out.
	RoutesPerRequest int
	// BaseDemand scales the traffic matrix before the load factor.
	BaseDemand float64
	// GridLevels controls oracle price-search granularity.
	GridLevels int
	// MeanUsageCost is C_e on usage-priced links; sized relative to the
	// value distribution so percentile charges genuinely bite (the
	// provider's 95th-percentile bills are a first-order cost in the
	// paper, not a rounding error).
	MeanUsageCost float64
}

// Small is the scale used by unit tests and benchmarks: tiny but still
// multi-region, multi-window, multi-path.
func Small() Scale {
	return Scale{
		Name:             "small",
		Regions:          2,
		NodesPerRegion:   3,
		Steps:            12,
		StepsPerDay:      6,
		MeanRequestSize:  40,
		AggregateSteps:   2,
		RoutesPerRequest: 2,
		BaseDemand:       6,
		GridLevels:       3,
		MeanUsageCost:    10,
	}
}

// Default is the scale used for the headline experiment runs.
func Default() Scale {
	return Scale{
		Name:             "default",
		Regions:          3,
		NodesPerRegion:   3,
		Steps:            36,
		StepsPerDay:      12,
		MeanRequestSize:  60,
		AggregateSteps:   4,
		RoutesPerRequest: 2,
		BaseDemand:       6,
		GridLevels:       4,
		MeanUsageCost:    10,
	}
}

// Medium is the headline scale under the name the robustness gauntlet's CI
// tier uses — identical to Default, aliased so test names and workflow
// matrices can say small/medium/paper without conflating "default" (a
// CLI fallback) with a size.
func Medium() Scale {
	sc := Default()
	sc.Name = "medium"
	return sc
}

// Paper approximates the evaluation scale of the paper itself: a
// 105-node WAN (15 regions x 7 datacenters; the production network had
// 106 nodes / 226 edges) over a week of hourly steps. Every LP the
// harness builds at this scale is solvable by the built-in simplex, but a
// full `-exp all` run takes many hours on one core — the paper used
// Gurobi on their testbed. Provided for completeness; Default is the
// supported evaluation scale.
func Paper() Scale {
	return Scale{
		Name:             "paper",
		Regions:          15,
		NodesPerRegion:   7,
		Steps:            7 * 24,
		StepsPerDay:      24,
		MeanRequestSize:  120,
		AggregateSteps:   8,
		RoutesPerRequest: 3,
		BaseDemand:       6,
		GridLevels:       4,
		MeanUsageCost:    10,
	}
}

// ScaleByName returns the named scale: small, default, medium or paper.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "small":
		return Small(), nil
	case "default":
		return Default(), nil
	case "medium":
		return Medium(), nil
	case "paper":
		return Paper(), nil
	}
	return Scale{}, fmt.Errorf("unknown scale %q (want small, default, medium, or paper)", name)
}

// Setup is one fully-instantiated experiment input: topology, traffic
// matrix series, and the synthesized request stream.
type Setup struct {
	Scale    Scale
	Net      *graph.Network
	Series   traffic.Series
	Requests []*traffic.Request
	Cost     cost.Config
	// LoadFactor records the applied traffic scaling.
	LoadFactor float64
	ValueDist  stats.Dist
	Seed       int64
	// Obs, when non-nil, is handed to every Pretium controller built from
	// this setup (see PretiumConfig). Defaults to the package-level
	// Observe recorder.
	Obs *obs.Recorder
}

// SetupOption mutates the setup configuration before generation.
type SetupOption func(*setupParams)

type setupParams struct {
	loadFactor float64
	valueDist  stats.Dist
	seed       int64
	costScale  float64
	rateFrac   float64
	rec        *obs.Recorder
	net        *graph.Network
	series     traffic.Series
}

// WithLoad sets the traffic-matrix load factor (paper: 0.5–4).
func WithLoad(f float64) SetupOption {
	return func(p *setupParams) { p.loadFactor = f }
}

// WithValueDist sets the request-value distribution (Figures 13–14 sweep
// normal and pareto with varying mu/sigma).
func WithValueDist(d stats.Dist) SetupOption {
	return func(p *setupParams) { p.valueDist = d }
}

// WithSeed overrides the experiment seed.
func WithSeed(s int64) SetupOption {
	return func(p *setupParams) { p.seed = s }
}

// WithCostScale multiplies usage-priced link costs (Figure 12 sweep).
func WithCostScale(f float64) SetupOption {
	return func(p *setupParams) { p.costScale = f }
}

// WithRateFraction makes a share of requests rate requests.
func WithRateFraction(f float64) SetupOption {
	return func(p *setupParams) { p.rateFrac = f }
}

// WithObs attaches an observability recorder to the setup, overriding the
// package-level Observe default (pass nil to detach).
func WithObs(r *obs.Recorder) SetupOption {
	return func(p *setupParams) { p.rec = r }
}

// WithNetwork runs the setup on a given topology (see graph.ReadCSV)
// instead of generating the scale's WAN. The caller's network is never
// modified: WithCostScale applies to a copy.
func WithNetwork(n *graph.Network) SetupOption {
	return func(p *setupParams) { p.net = n }
}

// WithSeries replays a recorded load-1 traffic-matrix series (see
// traffic.ReadSeriesCSV) instead of generating one; its length overrides
// the scale's Steps, and it must name no node the network lacks. The
// caller's series is never modified: WithLoad scales a copy.
func WithSeries(s traffic.Series) SetupOption {
	return func(p *setupParams) { p.series = s }
}

// NewSetup generates a deterministic experiment input at the given scale.
func NewSetup(sc Scale, opts ...SetupOption) *Setup {
	// Value scale calibration: the mean value per byte sits *below* the
	// NoPrices unit-value assumption and below peak marginal cost on
	// usage-priced links. This is what makes the paper's Figure 6 shape
	// possible at all — a value-blind scheduler overpays for peak
	// capacity and its welfare goes negative, while admission control
	// keeps Pretium positive.
	p := setupParams{
		loadFactor: 1,
		valueDist:  stats.Normal{Mu: 0.35, Sigma: 0.15, Floor: 0.02},
		seed:       1,
		costScale:  1,
		rec:        Observe,
	}
	for _, o := range opts {
		o(&p)
	}
	net := p.net
	if net == nil {
		wc := graph.DefaultWANConfig()
		wc.Regions = sc.Regions
		wc.NodesPerRegion = sc.NodesPerRegion
		if sc.MeanUsageCost > 0 {
			wc.MeanUsageCost = sc.MeanUsageCost
		}
		// Purchased (usage-priced) links are the fat inter-region pipes;
		// owned cross-region capacity is thin. Intra-region links are
		// tight enough that congestion varies per link and hour — the
		// structure a flat two-tier price cannot express (Figure 6's
		// point), and the scarcity that makes partial-fulfillment menus
		// matter (Figure 11).
		wc.UnpricedInterFactor = 0.35
		wc.IntraCapacity = 40
		wc.Seed = p.seed
		net = graph.GenerateWAN(wc)
	} else if p.costScale != 1 {
		net = net.Clone()
	}
	if p.costScale != 1 {
		net.ScaleUsageCosts(p.costScale)
	}

	series := p.series
	if series == nil {
		gc := traffic.DefaultGenConfig(sc.Steps)
		gc.StepsPerDay = sc.StepsPerDay
		gc.BaseDemand = sc.BaseDemand
		gc.Seed = p.seed + 100
		series = traffic.Generate(net, gc)
	} else {
		sc.Steps = len(series)
		if p.loadFactor != 1 {
			series = series.Clone()
		}
	}
	if p.loadFactor != 1 {
		series.Scale(p.loadFactor)
	}

	rc := traffic.DefaultRequestConfig()
	// Higher load means *bigger* transfers, not more of them: scaling
	// the mean request size with load keeps the request count (and so
	// LP size) stable across the Figure 6 load sweep.
	rc.MeanSize = sc.MeanRequestSize * p.loadFactor
	rc.ValueDist = p.valueDist
	rc.RoutesPerRequest = sc.RoutesPerRequest
	rc.MaxSlack = sc.StepsPerDay / 2
	rc.RateFraction = p.rateFrac
	rc.AggregateSteps = sc.AggregateSteps
	rc.Seed = p.seed + 200
	reqs := traffic.Synthesize(net, series, rc)

	return &Setup{
		Scale:      sc,
		Net:        net,
		Series:     series,
		Requests:   reqs,
		Cost:       cost.DefaultConfig(sc.StepsPerDay),
		LoadFactor: p.loadFactor,
		ValueDist:  p.valueDist,
		Seed:       p.seed,
		Obs:        p.rec,
	}
}
