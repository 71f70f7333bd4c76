package exp

import (
	"fmt"
	"math"

	"pretium/internal/traffic"
)

// Convergence probes the §4.4 stability claim: when every day draws
// requests from the same demand distribution, the Price Computer's
// window-to-window updates settle down. It simulates `days` statistically
// identical days and reports, per window transition, the relative L1
// distance between consecutive published price vectors.
func Convergence(sc Scale, days int, seed int64) ([]Row, error) {
	if days < 3 {
		return nil, fmt.Errorf("exp: convergence needs >= 3 days")
	}
	day := sc.StepsPerDay
	// One day of traffic, tiled so every day has identical volume.
	base := NewSetup(sc, WithSeed(seed))
	oneDay := base.Series[:day]
	tiled := make(traffic.Series, 0, days*day)
	for d := 0; d < days; d++ {
		tiled = append(tiled, oneDay...)
	}
	rc := traffic.DefaultRequestConfig()
	rc.MeanSize = sc.MeanRequestSize
	rc.ValueDist = base.ValueDist
	rc.RoutesPerRequest = sc.RoutesPerRequest
	rc.MaxSlack = day / 2
	rc.AggregateSteps = sc.AggregateSteps
	rc.Seed = seed + 300
	reqs := traffic.Synthesize(base.Net, tiled, rc)

	s := &Setup{
		Scale:      sc,
		Net:        base.Net,
		Series:     tiled,
		Requests:   reqs,
		Cost:       base.Cost,
		LoadFactor: 1,
		ValueDist:  base.ValueDist,
		Seed:       seed,
	}
	s.Scale.Steps = days * day
	res, err := s.RunPretium(nil)
	if err != nil {
		return nil, err
	}

	// Price vector of window w: the published prices over its steps.
	dist := func(w1, w2 int) float64 {
		num, den := 0.0, 0.0
		for _, p := range res.Controller.State().BasePrice {
			for i := 0; i < day; i++ {
				a, b := p[w1*day+i], p[w2*day+i]
				num += math.Abs(a - b)
				den += math.Abs(a) + math.Abs(b)
			}
		}
		if den == 0 {
			return 0
		}
		return 2 * num / den
	}
	var rows []Row
	for w := 1; w < days; w++ {
		rows = append(rows, Row{
			Label: fmt.Sprintf("window%d->%d", w-1, w),
			Columns: []Col{
				{Name: "rel_L1_price_change", Value: dist(w-1, w)},
			},
		})
	}
	return rows, nil
}
