package exp

import (
	"fmt"

	"pretium/internal/baselines"
	"pretium/internal/core"
	"pretium/internal/sim"
)

// Scheme names as used in result maps and printed tables.
const (
	SchemeOPT          = "OPT"
	SchemeNoPrices     = "NoPrices"
	SchemeRegionOracle = "RegionOracle"
	SchemePeakOracle   = "PeakOracle"
	SchemeVCGLike      = "VCGLike"
	SchemePretium      = "Pretium"
	SchemeNoMenu       = "Pretium-NoMenu"
	SchemeNoSAM        = "Pretium-NoSAM"
	// SchemeOnlineTE is the Tempus-like online deadline-TE scheme the
	// paper mentions and excludes; included here as an extension.
	SchemeOnlineTE = "OnlineTE"
)

// SchemeResult bundles a scheme's outcome and report.
type SchemeResult struct {
	Name    string
	Outcome *sim.Outcome
	Report  sim.Report
	// Controller is set for Pretium variants (price traces, timings).
	Controller *core.Controller
}

// baselineConfig adapts a setup for the baselines package.
func (s *Setup) baselineConfig() baselines.Config {
	return baselines.Config{Horizon: s.Scale.Steps, Cost: s.Cost}
}

// PretiumConfig returns the controller configuration used across the
// evaluation for this setup.
func (s *Setup) PretiumConfig() core.Config {
	cfg := core.DefaultConfig(s.Scale.Steps)
	cfg.Cost = s.Cost
	cfg.PriceWindow = s.Scale.StepsPerDay
	// Seed prices relative to the value scale: day one starts below the
	// typical value so the market can discover demand, and the floor
	// stays an order of magnitude below it.
	mean := s.ValueDist.Mean()
	cfg.InitialPrice = 0.4 * mean
	cfg.MinPrice = 0.02 * mean
	cfg.Obs = s.Obs
	return cfg
}

// RunPretium runs Pretium (or an ablation) over the setup.
func (s *Setup) RunPretium(mutate func(*core.Config)) (SchemeResult, error) {
	cfg := s.PretiumConfig()
	name := SchemePretium
	if mutate != nil {
		mutate(&cfg)
	}
	switch {
	case !cfg.EnableMenu:
		name = SchemeNoMenu
	case !cfg.EnableSAM:
		name = SchemeNoSAM
	}
	ctl, err := core.New(s.Net, s.Requests, cfg)
	if err != nil {
		return SchemeResult{}, err
	}
	out, err := ctl.Run()
	if err != nil {
		return SchemeResult{}, err
	}
	rep, err := sim.Evaluate(s.Net, s.Requests, out, s.Cost)
	if err != nil {
		return SchemeResult{}, err
	}
	return SchemeResult{Name: name, Outcome: out, Report: rep, Controller: ctl}, nil
}

// RunScheme runs one named scheme over the setup.
func (s *Setup) RunScheme(name string) (SchemeResult, error) {
	bc := s.baselineConfig()
	var out *sim.Outcome
	var err error
	switch name {
	case SchemeOPT:
		out, err = baselines.OPT(s.Net, s.Requests, bc)
	case SchemeNoPrices:
		out, err = baselines.NoPrices(s.Net, s.Requests, bc)
	case SchemeRegionOracle:
		out, err = baselines.RegionOracle(s.Net, s.Requests, bc, s.Scale.GridLevels)
	case SchemePeakOracle:
		peak := baselines.PeakPeriod(s.Series, s.Scale.StepsPerDay)
		out, err = baselines.PeakOracle(s.Net, s.Requests, bc, peak, s.Scale.GridLevels)
	case SchemeVCGLike:
		out, err = baselines.VCGLike(s.Net, s.Requests, bc)
	case SchemeOnlineTE:
		out, err = baselines.OnlineTE(s.Net, s.Requests, bc)
	case SchemePretium:
		return s.RunPretium(nil)
	case SchemeNoMenu:
		return s.RunPretium(func(c *core.Config) { c.EnableMenu = false })
	case SchemeNoSAM:
		return s.RunPretium(func(c *core.Config) { c.EnableSAM = false })
	default:
		return SchemeResult{}, fmt.Errorf("exp: unknown scheme %q", name)
	}
	if err != nil {
		return SchemeResult{}, err
	}
	rep, err := sim.Evaluate(s.Net, s.Requests, out, s.Cost)
	if err != nil {
		return SchemeResult{}, err
	}
	return SchemeResult{Name: name, Outcome: out, Report: rep}, nil
}

// RunSchemes runs the given schemes and returns results keyed by name.
func (s *Setup) RunSchemes(names ...string) (map[string]SchemeResult, error) {
	out := make(map[string]SchemeResult, len(names))
	for _, name := range names {
		r, err := s.RunScheme(name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out[name] = r
	}
	return out, nil
}

// AllSchemes lists the paper's Figure 6 comparison set.
func AllSchemes() []string {
	return []string{SchemeOPT, SchemeNoPrices, SchemeRegionOracle, SchemePeakOracle, SchemeVCGLike, SchemePretium}
}
