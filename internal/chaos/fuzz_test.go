package chaos

import (
	"testing"

	"pretium/internal/graph"
	"pretium/internal/pricing"
)

const fuzzHorizon = 16

// decodeFuzzPlan decodes raw bytes into a deterministic outage plan over
// a 3-edge network. Five bytes per outage: kind, edge, window start,
// window length, and an intensity knob. The four kinds are the four
// shapes of churn — a link cut announced two steps early, a ramped drain,
// a flap, and a shared-risk group cut. Garbage decodes to
// aggressive-but-legal outages on purpose — the overlay must hold its
// invariants for any plan, not just sensible ones.
func decodeFuzzPlan(data []byte, edges []graph.EdgeID) Plan {
	var p Plan
	for i := 0; i+5 <= len(data); i += 5 {
		kind := int(data[i]) % 4
		e := one(edges[int(data[i+1])%len(edges)])
		// Windows may start before 0 and run past the horizon; outages
		// must clip them.
		from := int(data[i+2])%(fuzzHorizon+6) - 3
		to := from + int(data[i+3])%(fuzzHorizon+3)
		knob := float64(data[i+4]) / 100 // may exceed 1: clamping is part of the contract
		switch kind {
		case 0:
			p = append(p, Outage{Edges: e, From: from, To: to, Survive: knob, Announce: from - 2})
		case 1:
			p = append(p, Outage{Edges: e, From: from, To: to, Ramp: int(data[i+4]) % 4, Survive: knob})
		case 2:
			p = append(p, Outage{Edges: e, From: from, To: to, Period: 1 + int(data[i+4])%3, Survive: 1 - knob})
		case 3:
			p = append(p, Outage{Edges: edges[:1+int(data[i+4])%len(edges)], From: from, To: to, Survive: knob})
		}
	}
	return p
}

// FuzzChurnOverlay drives random outage plans through a full horizon
// and asserts the overlay's safety invariants: no (edge, step) capacity
// ever goes negative, windows that have fully passed restore the exact
// original capacity, and an outage on a link the plan never names
// survives untouched.
func FuzzChurnOverlay(f *testing.F) {
	f.Add([]byte{0, 0, 2, 4, 0})                                 // one full link cut
	f.Add([]byte{1, 1, 3, 5, 120})                               // over-unity drain knob
	f.Add([]byte{2, 0, 0, 15, 50, 1, 0, 0, 15, 40})              // flap + drain same edge
	f.Add([]byte{3, 2, 1, 6, 10, 0, 0, 1, 6, 0, 2, 1, 2, 9, 90}) // srlg + cut + flap
	f.Add([]byte{0, 0, 250, 200, 0})                             // window far outside horizon

	f.Fuzz(func(t *testing.T, data []byte) {
		n := graph.New()
		a := n.AddNode("a", "r")
		b := n.AddNode("b", "r")
		c := n.AddNode("c", "r")
		edges := []graph.EdgeID{
			n.AddEdge(a, b, 10),
			n.AddEdge(b, c, 7),
			n.AddEdge(a, c, 13),
		}
		// A standing outage on a link the plan never names, which the
		// plan's writes must not disturb.
		standing := n.AddEdge(c, a, 5)
		st := pricing.NewState(n, fuzzHorizon, 1)
		st.SetOutage(standing, 5, 2)

		p := decodeFuzzPlan(data, edges)
		// Latest step any outage may still be touching (drains extend
		// Ramp steps past To).
		lastTouched := -1
		for _, in := range p {
			_, end, _ := in.(Outage).span()
			lastTouched = max(lastTouched, end)
		}

		for step := 0; step < fuzzHorizon; step++ {
			p.BeforeStep(step, st)
			for _, e := range edges {
				for tt := 0; tt < fuzzHorizon; tt++ {
					got := st.Capacity(e, tt)
					if got < 0 {
						t.Fatalf("step %d: capacity(e%d, %d) = %v < 0", step, e, tt, got)
					}
					if out := st.OutageAt(e, tt); out < 0 {
						t.Fatalf("step %d: outage(e%d, %d) = %v < 0", step, e, tt, out)
					}
				}
			}
		}
		// Exact restore: cells beyond every window carry no residue.
		for _, e := range edges {
			cap := n.Edge(e).Capacity
			for tt := lastTouched + 1; tt < fuzzHorizon; tt++ {
				if tt < 0 {
					continue
				}
				if got := st.Capacity(e, tt); got != cap {
					t.Fatalf("no restore: capacity(e%d, %d) = %v, want exactly %v", e, tt, got, cap)
				}
				if got := st.OutageAt(e, tt); got != 0 {
					t.Fatalf("outage residue at (e%d, %d): %v", e, tt, got)
				}
			}
		}
		if got := st.OutageAt(standing, 5); got != 2 || st.Capacity(standing, 5) != 3 {
			t.Fatalf("the plan disturbed a standing outage: %v", got)
		}
	})
}
