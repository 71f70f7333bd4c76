// Command faults demonstrates §4.4 robustness: mid-run a link loses most
// of its capacity. A fault announced at onset is a chaos.Outage on that
// one link (Survive is the share it keeps): the planner sees the hole,
// the schedule adjustment module respreads traffic over other paths and
// later timesteps, and a guarantee it cannot carry is refunded by the
// repair ladder. A silent fault is high-pri use the planner never learns
// of (core.Config.HighPriActual): planned transfers are physically shed
// and the broken promises are accounted as reneged bytes.
package main

import (
	"fmt"
	"log"

	"pretium"
	"pretium/internal/chaos"
	"pretium/internal/core"
	"pretium/internal/exp"
)

func main() {
	s := exp.NewSetup(exp.Small())
	faultEdge := pretium.EdgeID(0)
	day := exp.Small().StepsPerDay

	run := func(name string, fault func(*core.Config)) {
		cfg := s.PretiumConfig()
		if fault != nil {
			fault(&cfg)
		}
		ctl, err := core.New(s.Net, cloneReqs(s.Requests), cfg)
		if err != nil {
			log.Fatal(err)
		}
		out, err := ctl.Run()
		if err != nil {
			log.Fatal(err)
		}
		rep, err := pretium.Evaluate(s.Net, s.Requests, out, s.Cost)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s welfare=%8.1f completion=%4.0f%% reneged=%7.2f bytes\n",
			name, rep.Welfare, rep.CompletionFrac*100, rep.RenegedBytes)
	}

	fmt.Printf("fault: link %d loses 80%% of capacity for half a day mid-run\n\n", faultEdge)
	run("no fault", nil)
	run("announced at onset", func(cfg *core.Config) {
		cfg.Chaos = chaos.Outage{Edges: []pretium.EdgeID{faultEdge}, From: day / 2, To: day, Survive: 0.2}
	})
	run("silent (never known)", func(cfg *core.Config) {
		lost := make([][]float64, s.Net.NumEdges())
		for e := range lost {
			lost[e] = make([]float64, cfg.Horizon)
		}
		for t := day / 2; t <= day; t++ {
			lost[faultEdge][t] = s.Net.Edge(faultEdge).Capacity * (1 - 0.2)
		}
		cfg.HighPriActual = lost
	})

	fmt.Println("\nAnnounced faults let SAM respread load (small welfare dip, promises")
	fmt.Println("kept); silent faults physically shed planned transfers, and every")
	fmt.Println("broken guarantee shows up in the reneged-bytes accounting.")
}

func cloneReqs(reqs []*pretium.Request) []*pretium.Request {
	out := make([]*pretium.Request, len(reqs))
	for i, r := range reqs {
		cp := *r
		out[i] = &cp
	}
	return out
}
