// Quickstart: build a synthetic inter-DC WAN, generate a day of traffic,
// run the full Pretium controller (admission menus + schedule adjustment
// + price computer), and print the realized economics.
package main

import (
	"fmt"
	"log"

	"pretium"
)

func main() {
	// A 2-region, 6-datacenter WAN whose inter-region pipes are charged
	// on 95th-percentile usage.
	wc := pretium.DefaultWANConfig()
	wc.Regions = 2
	wc.NodesPerRegion = 3
	wc.MeanUsageCost = 6
	net := pretium.GenerateWAN(wc)
	fmt.Printf("WAN: %d datacenters, %d links (%d usage-priced)\n",
		net.NumNodes(), net.NumEdges(), len(net.UsagePricedEdges()))

	// Two simulated days at hourly resolution (12-step "days" keep the
	// demo fast); diurnal, heterogeneous, occasionally bursty traffic.
	const horizon, day = 24, 12
	tc := pretium.DefaultTrafficConfig(horizon)
	tc.StepsPerDay = day
	series := pretium.GenerateTraffic(net, tc)
	series.Scale(2.5) // push the WAN into the congested regime

	rc := pretium.DefaultRequestConfig()
	rc.MeanSize = 30
	rc.AggregateSteps = 2
	rc.MaxSlack = 6
	reqs := pretium.SynthesizeRequests(net, series, rc)
	fmt.Printf("workload: %d deadline transfer requests\n\n", len(reqs))

	cfg := pretium.DefaultConfig(horizon)
	cfg.Cost = pretium.DefaultCostConfig(day)
	cfg.PriceWindow = day
	ctl, err := pretium.NewController(net, reqs, cfg)
	if err != nil {
		log.Fatal(err)
	}
	out, err := ctl.Run()
	if err != nil {
		log.Fatal(err)
	}
	rep, err := pretium.Evaluate(net, reqs, out, cfg.Cost)
	if err != nil {
		log.Fatal(err)
	}

	admitted := 0
	for _, a := range ctl.Admitted {
		if a {
			admitted++
		}
	}
	fmt.Println("== results ==")
	fmt.Printf("admitted:        %d / %d requests\n", admitted, len(reqs))
	fmt.Printf("social welfare:  %.1f  (value %.1f - percentile cost %.1f)\n", rep.Welfare, rep.Value, rep.Cost)
	fmt.Printf("provider profit: %.1f  (revenue %.1f)\n", rep.Profit, rep.Revenue)
	fmt.Printf("completion:      %.0f%% of all requests finished\n", rep.CompletionFrac*100)
	fmt.Printf("guarantee debt:  %.2f bytes reneged\n", rep.RenegedBytes)

	// Show how internal prices moved on the busiest usage-priced link.
	if edges := net.UsagePricedEdges(); len(edges) > 0 {
		e := edges[0]
		fmt.Printf("\ninternal price on link %d over time:\n  ", e)
		for t := 0; t < horizon; t++ {
			fmt.Printf("%.2f ", ctl.State().BasePrice[e][t])
		}
		fmt.Println()
	}
}
