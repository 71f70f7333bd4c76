// Rateleases demonstrates the request classes of §4.4 beyond byte
// transfers: a firm leasing VMs in one region wants a guaranteed
// 250 Mbps-style bandwidth reservation to another datacenter for a
// working day, alongside ordinary deadline byte transfers competing for
// the same links and a best-effort scavenger transfer that names its own
// per-byte price and rides whatever capacity is left.
package main

import (
	"fmt"
	"log"

	"pretium"
)

func main() {
	wc := pretium.DefaultWANConfig()
	wc.Regions = 2
	wc.NodesPerRegion = 2
	net := pretium.GenerateWAN(wc)

	const horizon = 12
	src := pretium.NodeID(0)
	dst := pretium.NodeID(2) // other region
	routes := net.KShortestPaths(src, dst, 2)

	// The lease: 8 bandwidth units per timestep, steps 2..9.
	lease := &pretium.Request{
		ID: 0, Src: src, Dst: dst, Routes: routes,
		Arrival: 0, Start: 2, End: 9,
		Kind: pretium.RateRequest, Rate: 8, Demand: 8 * 8,
		Value: 3,
	}

	// Background byte transfers contending for the same links.
	reqs := []*pretium.Request{lease}
	for i := 1; i <= 6; i++ {
		start := (i * 2) % (horizon - 2)
		reqs = append(reqs, &pretium.Request{
			ID: i, Src: src, Dst: dst, Routes: routes,
			Arrival: start, Start: start, End: start + 2,
			Demand: 30, Value: 1.2,
		})
	}

	// The scavenger: 40 bytes over the whole horizon, no guarantee, paying
	// 0.5 per byte it actually gets.
	scavenger := &pretium.Request{
		ID: len(reqs), Src: src, Dst: dst, Routes: routes,
		Arrival: 0, Start: 0, End: horizon - 1,
		Kind: pretium.ScavengerRequest, Demand: 40, Value: 0.5,
	}
	reqs = append(reqs, scavenger)

	cfg := pretium.DefaultConfig(horizon)
	cfg.Cost = pretium.DefaultCostConfig(horizon)
	cfg.PriceWindow = horizon
	ctl, err := pretium.NewController(net, reqs, cfg)
	if err != nil {
		log.Fatal(err)
	}
	out, err := ctl.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("lease admitted: %v at average price %.3f/byte\n", ctl.Admitted[0], ctl.AdmissionPrice[0])
	fmt.Printf("lease delivered %.1f of %.1f bytes (rate %.1f x %d steps)\n",
		out.Delivered[0], lease.Demand, lease.Rate, lease.Window())
	fmt.Println("\nper-step delivery for the lease (must meet the rate every step):")
	for t := lease.Start; t <= lease.End; t++ {
		got := out.DeliveredBy(0, t) - out.DeliveredBy(0, t-1)
		fmt.Printf("  t=%2d  %.2f\n", t, got)
	}
	fmt.Println("\nbackground transfers:")
	for i := 1; i < scavenger.ID; i++ {
		fmt.Printf("  request %d: delivered %.1f / %.1f, paid %.2f\n",
			i, out.Delivered[i], reqs[i].Demand, out.Payments[i])
	}
	fmt.Printf("\nscavenger: delivered %.1f / %.1f, paid %.2f\n",
		out.Delivered[scavenger.ID], scavenger.Demand, out.Payments[scavenger.ID])
}
