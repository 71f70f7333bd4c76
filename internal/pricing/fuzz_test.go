package pricing

import (
	"math/rand"
	"testing"

	"pretium/internal/graph"
	"pretium/internal/traffic"
)

// FuzzQuoteMenu drives the heap engine and the reference scan over
// worlds derived from the fuzzed inputs and requires identical menus.
// The seed corpus below runs under plain `go test`, so the differential
// check is part of the tier-1 suite; `go test -fuzz=FuzzQuoteMenu`
// explores further. Shapes below numQuoteShapes bend a random world
// (applyQuoteShape); the next len(loopShapes) replace it with a
// loop-shape world quoted at its demand.
func FuzzQuoteMenu(f *testing.F) {
	f.Add(int64(1), uint8(0), false, uint8(0))
	f.Add(int64(2), uint8(3), false, uint8(0))
	f.Add(int64(3), uint8(1), true, uint8(0))
	f.Add(int64(41), uint8(7), false, uint8(0))
	f.Add(int64(42), uint8(2), true, uint8(0))
	f.Add(int64(1234), uint8(9), false, uint8(0))
	f.Add(int64(99991), uint8(4), true, uint8(0))
	f.Add(int64(-7), uint8(255), false, uint8(0))
	// Every boundary shape of the one-segment fast path (applyQuoteShape),
	// on an open and on a part-saturated world.
	for shape := uint8(1); shape < numQuoteShapes; shape++ {
		f.Add(int64(100+int(shape)), uint8(0), false, shape)
		f.Add(int64(200+int(shape)), uint8(1), true, shape)
	}
	// Every request geometry of the edge-major pricing pass, quoted to one
	// segment and through the heap, on an open and a part-saturated world.
	for i := range loopShapes {
		shape := uint8(numQuoteShapes + i)
		f.Add(int64(300+i), uint8(0), false, shape)
		f.Add(int64(400+i), uint8(255), true, shape)
	}
	f.Fuzz(func(t *testing.T, seed int64, demandScale uint8, saturate bool, shape uint8) {
		r := rand.New(rand.NewSource(seed))
		loop := int(shape) - numQuoteShapes
		isLoop := loop >= 0 && loop < len(loopShapes)
		var st *State
		var req *traffic.Request
		if isLoop {
			st, req = loopShapes[loop].world(r)
		} else {
			st, req = randomQuoteWorld(r)
		}
		req.Demand *= 1 + float64(demandScale)
		if saturate {
			// Pin a random subset of (edge, t) at full capacity so the
			// engines navigate dead candidates and partial exhaustion.
			for e := range st.Reserved {
				cap := st.Net.Edge(graph.EdgeID(e)).Capacity
				for tt := range st.Reserved[e] {
					if r.Intn(3) == 0 {
						st.Reserved[e][tt] = cap
					}
				}
			}
			st.Invalidate()
		}
		maxBytes := req.Demand
		if !isLoop {
			maxBytes = applyQuoteShape(shape, st, req)
		}
		want := quoteMenuReference(st, req, maxBytes)
		got := QuoteMenu(st, req, maxBytes)
		requireMenusBitIdentical(t, "fuzz", got, want)
		if st.Adjust.Factor >= 1 { // a sub-unit premium lowers prices as cells fill
			requireExactlyMonotone(t, "fuzz", got)
		}
	})
}
