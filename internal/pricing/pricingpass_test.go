package pricing

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pretium/internal/graph"
	"pretium/internal/traffic"
)

// Quoter.Quote prices its candidates edge-major: each route's W prices
// start at 0 and every edge of the route adds its window of cached
// segment prices in route order, four steps at a time. These tests hold
// that pass to the reference scan bit for bit across the window widths
// the unrolled add splits differently, route lengths 0 to 6, a window
// clipped by the horizon, exact price ties, and a menu the heap
// assembles from the pass's prices.

// loopShape is one request geometry for the edge-major pricing pass.
type loopShape struct {
	name   string
	window int   // steps requested, from step 2
	lens   []int // route lengths in edges; 0 is an empty route
	clip   bool  // the horizon ends three steps into the window
	flat   bool  // every base price equal: ties across routes and steps
	shared bool  // every route starts on one shared edge
}

// loopShapes are part of the FuzzQuoteMenu corpus as shapes
// numQuoteShapes+i; append, do not reorder.
var loopShapes = func() []loopShape {
	var out []loopShape
	for _, w := range []int{1, 2, 3, 4, 5, 7, 8, 9, 36} {
		out = append(out, loopShape{name: fmt.Sprintf("W=%d, routes of 1 to 6 edges", w), window: w, lens: []int{1, 2, 3, 4, 5, 6}})
	}
	return append(out,
		loopShape{name: "empty route", window: 5, lens: []int{2, 0, 1}},
		loopShape{name: "window clipped by the horizon", window: 9, lens: []int{1, 3, 5}, clip: true},
		loopShape{name: "equal prices across routes and steps", window: 7, lens: []int{2, 2, 2}, flat: true},
		loopShape{name: "shared first edge", window: 8, lens: []int{3, 2, 4}, shared: true},
	)
}()

// world builds the shape's network and request: every route a walk of
// fresh edges from s to d (after the shared edge, when there is one),
// base prices drawn from r unless flat, and a demand of 5 against
// capacities of 20 to 100, so the cheapest candidate holds it.
func (sh loopShape) world(r *rand.Rand) (*State, *traffic.Request) {
	const start = 2
	n := graph.New()
	s, d := n.AddNode("s", "r"), n.AddNode("d", "r")
	capacity := func() float64 { return 20 + 80*r.Float64() }
	h := s
	var hub graph.EdgeID
	if sh.shared {
		h = n.AddNode("h", "r")
		hub = n.AddEdge(s, h, capacity())
	}
	routes := make([]graph.Path, len(sh.lens))
	for ri, l := range sh.lens {
		from := s
		if sh.shared && l > 0 {
			routes[ri], from, l = graph.Path{hub}, h, l-1
		}
		for k := 0; k < l; k++ {
			to := d
			if k < l-1 {
				to = n.AddNode(fmt.Sprintf("r%d.%d", ri, k), "r")
			}
			routes[ri] = append(routes[ri], n.AddEdge(from, to, capacity()))
			from = to
		}
	}
	end := start + sh.window - 1
	horizon := end + 3
	if sh.clip {
		horizon = start + 3
	}
	st := NewState(n, horizon, 0.5)
	if !sh.flat {
		for e := 0; e < n.NumEdges(); e++ {
			for t := 0; t < horizon; t++ {
				st.SetBasePrice(graph.EdgeID(e), t, 0.1+2*r.Float64())
			}
		}
	}
	req := &traffic.Request{
		Src: s, Dst: d, Routes: routes,
		Arrival: start, Start: start, End: end,
		Demand: 5, Value: 10,
	}
	return st, req
}

func TestQuotePricingPassShapes(t *testing.T) {
	var reused Quoter
	for i, sh := range loopShapes {
		for _, maxBytes := range []float64{5, 1e6} { // one segment; to exhaustion
			st, req := sh.world(rand.New(rand.NewSource(int64(i))))
			label := fmt.Sprintf("%s, maxBytes %v", sh.name, maxBytes)
			want := quoteMenuReference(st, req, maxBytes)
			var fresh Quoter
			requireMenusBitIdentical(t, label+", fresh quoter", fresh.Quote(st, req, maxBytes), want)
			requireMenusBitIdentical(t, label+", reused quoter", reused.Quote(st, req, maxBytes), want)
			requireMenusBitIdentical(t, label+", pooled quoter", QuoteMenu(st, req, maxBytes), want)

			first, empty := want.Segments[0], slices.Index(sh.lens, 0)
			switch {
			case empty >= 0 && (first.Price != 0 || first.RouteIdx != empty):
				t.Fatalf("%s: first segment %+v, want the empty route at price 0", label, first)
			case sh.flat && (first.RouteIdx != 0 || first.Time != req.Start):
				t.Fatalf("%s: first segment %+v, want the lowest candidate index", label, first)
			case sh.clip && want.Segments[len(want.Segments)-1].Time >= st.Horizon:
				t.Fatalf("%s: a segment past the horizon: %+v", label, want.Segments)
			case maxBytes == 5 && len(want.Segments) != 1:
				t.Fatalf("%s: %d segments, want the one-segment menu", label, len(want.Segments))
			case maxBytes > 5 && empty < 0 && len(want.Segments) < 2:
				t.Fatalf("%s: %d segments, want a menu the heap assembles", label, len(want.Segments))
			}
		}
	}
}

// A window that starts before step 0 is priced from step 0, as one that
// ends past the horizon is priced to its last step — never from another
// edge's row of the segment cache.
func TestQuoteClampsNegativeStart(t *testing.T) {
	for _, maxBytes := range []float64{50, 500} { // one segment; through the heap
		st, req := twoRouteWorld([3]float64{0.6, 1, 0.2}, DefaultAdjust())
		st.SetBasePrice(0, 0, 0.1) // the cheapest cell is step 0 of edge 0
		clipped := *req
		clipped.Arrival, clipped.Start = 0, 0
		want := quoteMenuReference(st, &clipped, maxBytes)
		req.Arrival, req.Start = -1, -1
		requireMenusBitIdentical(t, fmt.Sprintf("start -1, maxBytes %v", maxBytes), QuoteMenu(st, req, maxBytes), want)
	}
}
