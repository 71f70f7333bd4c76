package exp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"pretium/internal/graph"
	"pretium/internal/pricing"
	"pretium/internal/sim"
	"pretium/internal/stats"
	"pretium/internal/traffic"
)

// newFlatPriceState builds a pricing state with unit base prices and the
// short-term premium disabled, for clean menu illustrations.
func newFlatPriceState(net *graph.Network, horizon int) *pricing.State {
	st := pricing.NewState(net, horizon, 1)
	st.Adjust = pricing.AdjustConfig{Threshold: 1, Factor: 1}
	return st
}

// quote returns the full-demand menu for a request.
func quote(st *pricing.State, req *traffic.Request) *pricing.Menu {
	return pricing.QuoteMenu(st, req, req.Demand)
}

// newRand returns a seeded generator for figure-local sampling.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Row is one printed line of an experiment's output: a label plus named
// numeric columns in a stable order.
type Row struct {
	Label   string
	Columns []Col
}

// Col is one named value in a Row.
type Col struct {
	Name  string
	Value float64
}

// Fmt renders the row for terminal output.
func (r Row) Fmt() string {
	s := fmt.Sprintf("%-18s", r.Label)
	for _, c := range r.Columns {
		s += fmt.Sprintf("  %s=%.4g", c.Name, c.Value)
	}
	return s
}

// Figure1 reproduces the CDF of per-link 90th/10th-percentile utilization
// ratios over a week of synthetic traffic. Paper shape: ratio > 5 for
// more than 10% of links, < 2 for roughly 70%.
func Figure1(sc Scale, seed int64) []Row {
	// Figure 1 is a *trace* statistic, independent of the scheduling
	// experiments' LP scale; it always uses the calibrated 12-node
	// topology the generator's defaults were tuned on.
	wc := graph.DefaultWANConfig()
	wc.Seed = seed
	net := graph.GenerateWAN(wc)
	gc := traffic.DefaultGenConfig(7 * sc.StepsPerDay)
	gc.StepsPerDay = sc.StepsPerDay
	gc.Seed = seed + 1
	series := traffic.Generate(net, gc)
	usage := traffic.LinkUtilization(net, series)
	var ratios []float64
	for _, s := range usage {
		p90, err1 := stats.Percentile(s, 90)
		p10, err2 := stats.Percentile(s, 10)
		if err1 != nil || err2 != nil || p10 <= 0 {
			continue
		}
		ratios = append(ratios, p90/p10)
	}
	cdf := stats.NewCDF(ratios)
	rows := make([]Row, 0, 16)
	for _, x := range []float64{1, 1.5, 2, 3, 5, 10, 20, 50, 100} {
		rows = append(rows, Row{
			Label:   fmt.Sprintf("ratio<=%.4g", x),
			Columns: []Col{{Name: "cum_frac", Value: cdf.At(x)}},
		})
	}
	return rows
}

// Figure4 reproduces the price-menu comparison: the same request quoted
// with a long and a short deadline. Shorter deadlines yield (weakly)
// higher prices and a smaller guarantee cap x̄.
func Figure4() []Row {
	net := graph.New()
	s := net.AddNode("S", "r")
	m := net.AddNode("M", "r")
	t := net.AddNode("T", "r")
	net.AddEdge(s, t, 1)
	net.AddEdge(s, m, 1)
	net.AddEdge(m, t, 1)
	routes := net.KShortestPaths(s, t, 2)

	st := newFlatPriceState(net, 2)
	long := &traffic.Request{ID: 0, Src: s, Dst: t, Routes: routes, Start: 0, End: 1, Demand: 8, Value: 100}
	short := &traffic.Request{ID: 1, Src: s, Dst: t, Routes: routes, Start: 0, End: 0, Demand: 8, Value: 100}

	menuLong := quote(st, long)
	menuShort := quote(st, short)
	var rows []Row
	for _, x := range []float64{1, 2, 3, 4} {
		rows = append(rows, Row{
			Label: fmt.Sprintf("x=%.0f", x),
			Columns: []Col{
				{Name: "price_long_deadline", Value: menuLong.Price(x)},
				{Name: "price_short_deadline", Value: menuShort.Price(x)},
			},
		})
	}
	rows = append(rows, Row{
		Label: "guarantee_cap",
		Columns: []Col{
			{Name: "xbar_long", Value: menuLong.Cap()},
			{Name: "xbar_short", Value: menuShort.Cap()},
		},
	})
	return rows
}

// Figure5 reproduces the z_e vs y_e correlation: for the synthetic trace
// and for normal/exponential/pareto per-link loads, the top-10% mean
// tracks the 95th percentile linearly.
func Figure5(sc Scale, seed int64) []Row {
	var rows []Row
	add := func(name string, zs, ys []float64) {
		lr, err := stats.LinearRegression(ys, zs)
		if err != nil {
			return
		}
		rows = append(rows, Row{Label: name, Columns: []Col{
			{Name: "slope", Value: lr.Slope},
			{Name: "intercept", Value: lr.Intercept},
			{Name: "R2", Value: lr.R2},
			{Name: "links", Value: float64(len(zs))},
		}})
	}

	// Trace-driven: per-link usage from the synthetic WAN.
	wc := graph.DefaultWANConfig()
	wc.Regions, wc.NodesPerRegion, wc.Seed = sc.Regions, sc.NodesPerRegion, seed
	net := graph.GenerateWAN(wc)
	gc := traffic.DefaultGenConfig(7 * sc.StepsPerDay)
	gc.StepsPerDay = sc.StepsPerDay
	gc.Seed = seed + 1
	usage := traffic.LinkUtilization(net, traffic.Generate(net, gc))
	var zs, ys []float64
	k := 0
	for _, s := range usage {
		if stats.Mean(s) == 0 {
			continue
		}
		if k = len(s) / 10; k < 1 {
			k = 1
		}
		z, err := stats.TopKMean(s, k)
		if err != nil {
			continue
		}
		y, err := stats.Percentile(s, 95)
		if err != nil {
			continue
		}
		zs = append(zs, z)
		ys = append(ys, y)
	}
	add("trace", zs, ys)

	// Synthetic distributions, one "link" per sample with its own scale.
	r := newRand(seed + 7)
	for _, d := range []struct {
		name string
		dist stats.Dist
	}{
		{"normal", stats.Normal{Mu: 10, Sigma: 3, Floor: 0}},
		{"exponential", stats.Exponential{MeanVal: 10}},
		{"pareto", stats.Pareto{Xm: 5, Alpha: 2.5}},
	} {
		var z2, y2 []float64
		for link := 0; link < 150; link++ {
			scale := math.Exp(r.NormFloat64())
			xs := make([]float64, 100)
			for i := range xs {
				xs[i] = scale * d.dist.Sample(r)
			}
			z, _ := stats.TopKMean(xs, 10)
			y, _ := stats.Percentile(xs, 95)
			z2 = append(z2, z)
			y2 = append(y2, y)
		}
		add(d.name, z2, y2)
	}
	return rows
}

// LoadSweepResult carries one (load factor, scheme) cell of Figures 6-9.
type LoadSweepResult struct {
	Load    float64
	Results map[string]SchemeResult
}

// sweepCase is one point of a figure sweep: its row label and setup.
type sweepCase struct {
	label string
	opts  []SetupOption
}

// loadCases sweeps the load factor.
func loadCases(loads []float64) []sweepCase {
	cases := make([]sweepCase, len(loads))
	for i, load := range loads {
		cases[i] = sweepCase{fmt.Sprintf("load=%.2g", load), []SetupOption{WithLoad(load)}}
	}
	return cases
}

// sweep runs every scheme on every case, one result map per case. The
// (case, scheme) cells run concurrently on up to Workers goroutines, each
// on its own Setup, so the output is identical to a sequential run.
func sweep(sc Scale, seed int64, cases []sweepCase, schemes []string) ([]map[string]SchemeResult, error) {
	results := make([]SchemeResult, len(cases)*len(schemes))
	err := ParallelFor(len(results), func(i int) error {
		c, scheme := cases[i/len(schemes)], schemes[i%len(schemes)]
		s := NewSetup(sc, append([]SetupOption{WithSeed(seed)}, c.opts...)...)
		r, err := s.RunScheme(scheme)
		if err != nil {
			return fmt.Errorf("%s: %s: %w", c.label, scheme, err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]map[string]SchemeResult, len(cases))
	for ci := range cases {
		out[ci] = make(map[string]SchemeResult, len(schemes))
		for si, scheme := range schemes {
			out[ci][scheme] = results[ci*len(schemes)+si]
		}
	}
	return out, nil
}

// relWelfare is name's welfare over OPT's (signed), 0 when OPT's is 0.
func relWelfare(res map[string]SchemeResult, name string) float64 {
	opt := res[SchemeOPT].Report.Welfare
	if opt == 0 {
		return 0
	}
	return res[name].Report.Welfare / opt
}

// relProfit is name's profit over |RegionOracle's|, raw when that is 0.
func relProfit(res map[string]SchemeResult, name string) float64 {
	p, ro := res[name].Report.Profit, res[SchemeRegionOracle].Report.Profit
	if ro == 0 {
		return p
	}
	return p / math.Abs(ro)
}

// welfareRows is one row per case of each name's relWelfare.
func welfareRows(cases []sweepCase, res []map[string]SchemeResult, names ...string) []Row {
	rows := make([]Row, len(cases))
	for i, c := range cases {
		cols := make([]Col, len(names))
		for j, name := range names {
			cols[j] = Col{Name: name, Value: relWelfare(res[i], name)}
		}
		rows[i] = Row{Label: c.label, Columns: cols}
	}
	return rows
}

// LoadSweep runs every scheme across load factors; Figures 6, 8 and 9 are
// different projections of its output.
func LoadSweep(sc Scale, loads []float64, schemes []string, seed int64) ([]LoadSweepResult, error) {
	res, err := sweep(sc, seed, loadCases(loads), schemes)
	if err != nil {
		return nil, err
	}
	out := make([]LoadSweepResult, len(loads))
	for i, load := range loads {
		out[i] = LoadSweepResult{Load: load, Results: res[i]}
	}
	return out, nil
}

// Figure6 projects a load sweep onto welfare relative to OPT.
func Figure6(sweep []LoadSweepResult) []Row {
	var rows []Row
	for _, cell := range sweep {
		cols := []Col{}
		for _, name := range schemeOrder(cell.Results) {
			if name == SchemeOPT {
				continue
			}
			cols = append(cols, Col{Name: name, Value: relWelfare(cell.Results, name)})
		}
		rows = append(rows, Row{Label: fmt.Sprintf("load=%.2g", cell.Load), Columns: cols})
	}
	return rows
}

// Figure8 projects a load sweep onto profit relative to RegionOracle.
func Figure8(sweep []LoadSweepResult) []Row {
	var rows []Row
	for _, cell := range sweep {
		cols := []Col{}
		for _, name := range schemeOrder(cell.Results) {
			if name == SchemeOPT || name == SchemeNoPrices {
				continue // unpriced schemes have no meaningful profit
			}
			cols = append(cols, Col{Name: name, Value: relProfit(cell.Results, name)})
		}
		rows = append(rows, Row{Label: fmt.Sprintf("load=%.2g", cell.Load), Columns: cols})
	}
	return rows
}

// Figure9 projects a load sweep onto request completion fractions. For
// Pretium it adds the completion rate *among admitted requests*: overall
// completion penalizes Pretium for refusing transfers whose value does
// not cover their cost (admission control working as designed), whereas
// admitted requests carry guarantees and should essentially always
// finish.
func Figure9(sweep []LoadSweepResult) []Row {
	var rows []Row
	for _, cell := range sweep {
		cols := []Col{}
		for _, name := range schemeOrder(cell.Results) {
			r := cell.Results[name]
			cols = append(cols, Col{Name: name, Value: r.Report.CompletionFrac})
			if r.Controller == nil {
				continue
			}
			admitted, completed := 0, 0
			for i, ok := range r.Controller.Admitted {
				if !ok {
					continue
				}
				admitted++
				// Completion among admitted = delivered what was bought
				// (x_i), which can be below the stated demand when the
				// quote capped the guarantee.
				if r.Outcome.Reneged[i] <= 1e-6 && r.Outcome.Delivered[i] > 0 {
					completed++
				}
			}
			if admitted > 0 {
				cols = append(cols, Col{
					Name:  name + "(admitted)",
					Value: float64(completed) / float64(admitted),
				})
			}
		}
		rows = append(rows, Row{Label: fmt.Sprintf("load=%.2g", cell.Load), Columns: cols})
	}
	return rows
}

// Figure7 runs Pretium at the paper's load factor 2 and reports the three
// panels: (a) price vs utilization over time on the busiest priced link,
// (b) value achieved relative to OPT binned by value-per-byte, and (c)
// admission price vs request value.
func Figure7(sc Scale, seed int64) (a, b, c []Row, err error) {
	s := NewSetup(sc, WithLoad(2), WithSeed(seed))
	pret, err := s.RunPretium(nil)
	if err != nil {
		return nil, nil, nil, err
	}
	opt, err := s.RunScheme(SchemeOPT)
	if err != nil {
		return nil, nil, nil, err
	}

	// (a) the usage-priced link with the highest total usage.
	bestE, bestSum := -1, -1.0
	for _, e := range s.Net.UsagePricedEdges() {
		sum := 0.0
		for _, u := range pret.Outcome.Usage[e] {
			sum += u
		}
		if sum > bestSum {
			bestSum, bestE = sum, int(e)
		}
	}
	if bestE >= 0 {
		capTotal := s.Net.Edge(graph.EdgeID(bestE)).Capacity
		for t := 0; t < sc.Steps; t++ {
			a = append(a, Row{Label: fmt.Sprintf("t=%d", t), Columns: []Col{
				{Name: "price", Value: pret.Controller.State().BasePrice[bestE][t]},
				{Name: "utilization", Value: pret.Outcome.Usage[bestE][t] / capTotal},
			}})
		}
	}

	// (b) value achieved per value-per-byte bucket, relative to OPT.
	maxV := 0.0
	for _, r := range s.Requests {
		if r.Value > maxV {
			maxV = r.Value
		}
	}
	nbins := 6
	pretH := stats.NewHistogram(0, maxV+1e-9, nbins)
	optH := stats.NewHistogram(0, maxV+1e-9, nbins)
	for i, r := range s.Requests {
		pretH.Add(r.Value, r.Value*pret.Outcome.Delivered[i])
		optH.Add(r.Value, r.Value*opt.Outcome.Delivered[i])
	}
	for i := 0; i < nbins; i++ {
		rel := 0.0
		if optH.Sums[i] > 0 {
			rel = pretH.Sums[i] / optH.Sums[i]
		}
		b = append(b, Row{Label: fmt.Sprintf("value~%.2f", pretH.BinCenter(i)), Columns: []Col{
			{Name: "value_rel_OPT", Value: rel},
			{Name: "OPT_value", Value: optH.Sums[i]},
		}})
	}

	// (c) admission price vs value for admitted requests (sampled).
	type pv struct{ v, p float64 }
	var pts []pv
	for i, r := range s.Requests {
		if pret.Controller.Admitted[i] {
			pts = append(pts, pv{v: r.Value, p: pret.Controller.AdmissionPrice[i]})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].v < pts[j].v })
	step := len(pts)/40 + 1
	for i := 0; i < len(pts); i += step {
		c = append(c, Row{Label: fmt.Sprintf("v=%.3f", pts[i].v), Columns: []Col{
			{Name: "price", Value: pts[i].p},
		}})
	}
	return a, b, c, nil
}

// Figure10 compares the CDF of per-link 90th-percentile utilization
// across schemes at load 1 (Pretium's schedule adjustment flattens peaks).
func Figure10(sc Scale, schemes []string, seed int64) ([]Row, error) {
	s := NewSetup(sc, WithLoad(1), WithSeed(seed))
	res, err := s.RunSchemes(schemes...)
	if err != nil {
		return nil, err
	}
	quantiles := []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0}
	var rows []Row
	for _, q := range quantiles {
		cols := []Col{}
		for _, name := range schemeOrder(res) {
			cdf := sim.Utilization90thCDF(s.Net, res[name].Outcome.Usage)
			cols = append(cols, Col{Name: name, Value: cdf.Quantile(q)})
		}
		rows = append(rows, Row{Label: fmt.Sprintf("q=%.2f", q), Columns: cols})
	}
	return rows, nil
}

// Figure11 is the ablation study: full Pretium vs Pretium-NoMenu vs
// Pretium-NoSAM, welfare relative to OPT across load factors.
func Figure11(sc Scale, loads []float64, seed int64) ([]Row, error) {
	cases := loadCases(loads)
	res, err := sweep(sc, seed, cases, []string{SchemeOPT, SchemePretium, SchemeNoMenu, SchemeNoSAM})
	if err != nil {
		return nil, err
	}
	return welfareRows(cases, res, SchemePretium, SchemeNoMenu, SchemeNoSAM), nil
}

// Figure12 sweeps the mean link cost (x2 and beyond) at load 1 and
// reports welfare relative to OPT for Pretium and RegionOracle.
func Figure12(sc Scale, costScales []float64, seed int64) ([]Row, error) {
	cases := make([]sweepCase, len(costScales))
	for i, cs := range costScales {
		cases[i] = sweepCase{fmt.Sprintf("costx%.2g", cs), []SetupOption{WithLoad(1), WithCostScale(cs)}}
	}
	res, err := sweep(sc, seed, cases, []string{SchemeOPT, SchemePretium, SchemeRegionOracle})
	if err != nil {
		return nil, err
	}
	return welfareRows(cases, res, SchemePretium, SchemeRegionOracle), nil
}

// ValueDistCase is one point of the Figures 13-14 sweep.
type ValueDistCase struct {
	Name string
	Dist stats.Dist
}

// ValueDistCases returns the paper's sweep: normal and pareto values at
// several mean/stddev ratios.
func ValueDistCases() []ValueDistCase {
	mean := 0.35
	var cases []ValueDistCase
	for _, ratio := range []float64{1.5, 2.5, 4} {
		sd := mean / ratio
		cases = append(cases,
			ValueDistCase{
				Name: fmt.Sprintf("normal(m/s=%.2g)", ratio),
				Dist: stats.Normal{Mu: mean, Sigma: sd, Floor: 0.02},
			},
			ValueDistCase{
				Name: fmt.Sprintf("pareto(m/s=%.2g)", ratio),
				Dist: stats.ParetoWithMeanStd(mean, sd),
			},
		)
	}
	return cases
}

// Figure13and14 sweeps value distributions at load 1: welfare relative to
// OPT (Figure 13) and profit relative to RegionOracle (Figure 14).
func Figure13and14(sc Scale, vcs []ValueDistCase, seed int64) (f13, f14 []Row, err error) {
	cases := make([]sweepCase, len(vcs))
	for i, vc := range vcs {
		cases[i] = sweepCase{vc.Name, []SetupOption{WithLoad(1), WithValueDist(vc.Dist)}}
	}
	res, err := sweep(sc, seed, cases, []string{SchemeOPT, SchemePretium, SchemeRegionOracle})
	if err != nil {
		return nil, nil, err
	}
	f13 = welfareRows(cases, res, SchemePretium, SchemeRegionOracle)
	f14 = make([]Row, len(cases))
	for i, c := range cases {
		f14[i] = Row{Label: c.label, Columns: []Col{
			{Name: "Pretium_profit_rel_RegionOracle", Value: relProfit(res[i], SchemePretium)},
		}}
	}
	return f13, f14, nil
}

// Table4 reports per-module runtimes (median and 95th percentile) from a
// Pretium run, mirroring the paper's Table 4.
func Table4(sc Scale, seed int64) ([]Row, error) {
	s := NewSetup(sc, WithLoad(2), WithSeed(seed))
	pret, err := s.RunPretium(nil)
	if err != nil {
		return nil, err
	}
	mk := func(name string, ds []time.Duration) Row {
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = d.Seconds()
		}
		med, _ := stats.Percentile(xs, 50)
		p95, _ := stats.Percentile(xs, 95)
		return Row{Label: name, Columns: []Col{
			{Name: "median_s", Value: med},
			{Name: "p95_s", Value: p95},
			{Name: "runs", Value: float64(len(xs))},
		}}
	}
	tm := pret.Controller.Timings
	rows := []Row{}
	if len(tm.RA) > 0 {
		rows = append(rows, mk("RA(per request)", tm.RA))
	}
	if len(tm.SAM) > 0 {
		rows = append(rows, mk("SAM(per step)", tm.SAM))
	}
	if len(tm.PC) > 0 {
		rows = append(rows, mk("PC(per window)", tm.PC))
	}
	return rows, nil
}

// schemeOrder returns result keys in canonical order.
func schemeOrder(res map[string]SchemeResult) []string {
	order := []string{SchemeOPT, SchemeNoPrices, SchemeRegionOracle, SchemePeakOracle, SchemeVCGLike, SchemePretium, SchemeNoMenu, SchemeNoSAM}
	var out []string
	for _, n := range order {
		if _, ok := res[n]; ok {
			out = append(out, n)
		}
	}
	// Any extras, alphabetically.
	var extra []string
	for n := range res {
		if !slices.Contains(out, n) {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}
