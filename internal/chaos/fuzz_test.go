package chaos

import (
	"testing"

	"pretium/internal/graph"
	"pretium/internal/pricing"
)

const fuzzHorizon = 16

// decodeFuzzPlan decodes raw bytes into a deterministic injector plan
// over a 3-edge network. Five bytes per injector: kind, edge, window
// start, window length, and an intensity knob. Garbage decodes to
// aggressive-but-legal injectors on purpose — the overlay must hold its
// invariants for any plan, not just sensible ones.
func decodeFuzzPlan(data []byte, edges []graph.EdgeID) Plan {
	var p Plan
	for i := 0; i+5 <= len(data); i += 5 {
		kind := int(data[i]) % 4
		e := edges[int(data[i+1])%len(edges)]
		// Windows may start before 0 and run past the horizon; injectors
		// must clip them.
		from := int(data[i+2])%(fuzzHorizon+6) - 3
		to := from + int(data[i+3])%(fuzzHorizon+3)
		knob := float64(data[i+4]) / 100 // may exceed 1: clamping is part of the contract
		switch kind {
		case 0:
			p = append(p, LinkCut{Edge: e, From: from, To: to, Survive: knob, Announce: from - 2})
		case 1:
			p = append(p, MaintenanceDrain{Edge: e, From: from, To: to, Ramp: int(data[i+4]) % 4, Survive: knob})
		case 2:
			p = append(p, CapacityFlap{Edge: e, From: from, To: to, Period: 1 + int(data[i+4])%3, Frac: knob})
		case 3:
			p = append(p, CorrelatedFailure{Edges: edges[:1+int(data[i+4])%len(edges)], From: from, To: to, Survive: knob})
		}
	}
	return p
}

// FuzzChurnOverlay drives random injector plans through a full horizon
// and asserts the overlay's safety invariants: no (edge, step) capacity
// ever goes negative, windows that have fully passed restore the exact
// original capacity, and the high-pri set-aside survives untouched.
func FuzzChurnOverlay(f *testing.F) {
	f.Add([]byte{0, 0, 2, 4, 0})                                 // one full LinkCut
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
		st := pricing.NewState(n, fuzzHorizon, 1)
		// A standing high-pri set-aside the injectors must not disturb.
		st.SetHighPri(edges[0], 5, 2)

		p := decodeFuzzPlan(data, edges)
		// Latest step any injector may still be touching (drains extend
		// Ramp steps past To; everything else ends at To).
		lastTouched := -1
		for _, in := range p {
			switch v := in.(type) {
			case LinkCut:
				if v.To > lastTouched {
					lastTouched = v.To
				}
			case MaintenanceDrain:
				if end := v.To + v.Ramp; end > lastTouched {
					lastTouched = end
				}
			case CapacityFlap:
				if v.To > lastTouched {
					lastTouched = v.To
				}
			case CorrelatedFailure:
				if v.To > lastTouched {
					lastTouched = v.To
				}
			}
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
				want := cap
				if e == edges[0] && tt == 5 {
					want -= 2 // the standing set-aside
				}
				if got := st.Capacity(e, tt); got != want {
					t.Fatalf("no restore: capacity(e%d, %d) = %v, want exactly %v", e, tt, got, want)
				}
				if got := st.OutageAt(e, tt); got != 0 {
					t.Fatalf("outage residue at (e%d, %d): %v", e, tt, got)
				}
			}
		}
		if got := st.HighPri[edges[0]][5]; got != 2 {
			t.Fatalf("injectors disturbed the high-pri set-aside: %v", got)
		}
	})
}
