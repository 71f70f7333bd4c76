package pricing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pretium/internal/graph"
	"pretium/internal/traffic"
)

// The one-segment fast path of Quoter.Quote returns before the heap is
// built whenever the cheapest candidate's room covers the quote. These
// tests sit on both sides of every condition of that shortcut and hold
// the engine to the reference scan bit for bit.

// requireMenusBitIdentical is requireMenusIdentical with no float
// equality left to interpretation: every field by its bit pattern.
func requireMenusBitIdentical(t *testing.T, label string, got, want *Menu) {
	t.Helper()
	bits := math.Float64bits
	if bits(got.Cap()) != bits(want.Cap()) {
		t.Fatalf("%s: cap: engine %v, reference %v", label, got.Cap(), want.Cap())
	}
	if len(got.Segments) != len(want.Segments) {
		t.Fatalf("%s: engine quoted %d segments %+v, reference %d %+v",
			label, len(got.Segments), got.Segments, len(want.Segments), want.Segments)
	}
	for i, w := range want.Segments {
		g := got.Segments[i]
		if bits(g.Bytes) != bits(w.Bytes) || bits(g.Price) != bits(w.Price) || g.RouteIdx != w.RouteIdx || g.Time != w.Time {
			t.Fatalf("%s: segment %d: engine %+v, reference %+v", label, i, g, w)
		}
	}
}

// twoRouteWorld is a→c direct (edge 0) beside a→b→c (edges 1, 2), every
// link of capacity 100 over 4 steps; the request spans steps 1..2. Base
// prices are per edge, so which route is cheapest is the caller's choice.
func twoRouteWorld(prices [3]float64, adj AdjustConfig) (*State, *traffic.Request) {
	n := graph.New()
	a, b, c := n.AddNode("a", "r"), n.AddNode("b", "r"), n.AddNode("c", "r")
	direct := n.AddEdge(a, c, 100)
	ab, bc := n.AddEdge(a, b, 100), n.AddEdge(b, c, 100)
	st := NewState(n, 4, 0)
	st.Adjust = adj
	for e, p := range prices {
		for ts := 0; ts < st.Horizon; ts++ {
			st.BasePrice[e][ts] = p
		}
	}
	st.Invalidate()
	req := &traffic.Request{
		Src: a, Dst: c, Routes: []graph.Path{{direct}, {ab, bc}},
		Arrival: 1, Start: 1, End: 2, Demand: 50, Value: 10,
	}
	return st, req
}

func TestQuoteFastPathBoundary(t *testing.T) {
	flat := AdjustConfig{Threshold: 1, Factor: 1}
	over := 80 + 1e-11 // a variable, so that over-80 rounds as the engine's does
	cases := []struct {
		name string
		// build returns the world and the maxBytes to quote.
		build func() (*State, *traffic.Request, float64)
		want  []Segment // nil: only the differential applies
	}{
		{"room equals maxBytes", func() (*State, *traffic.Request, float64) {
			st, req := twoRouteWorld([3]float64{1, 0.6, 0.6}, DefaultAdjust())
			return st, req, 80 // the direct link's base segment, to the byte
		}, []Segment{{Bytes: 80, Price: 1, RouteIdx: 0, Time: 1}}},
		{"room one ulp below maxBytes", func() (*State, *traffic.Request, float64) {
			// The general path's answer: the room, not maxBytes, and no
			// second segment for a remainder inside the loop's epsilon.
			st, req := twoRouteWorld([3]float64{1, 0.6, 0.6}, DefaultAdjust())
			return st, req, math.Nextafter(80, math.Inf(1))
		}, []Segment{{Bytes: 80, Price: 1, RouteIdx: 0, Time: 1}}},
		{"room below maxBytes by more than the epsilon", func() (*State, *traffic.Request, float64) {
			st, req := twoRouteWorld([3]float64{1, 0.6, 0.6}, DefaultAdjust())
			return st, req, over
		}, []Segment{{Bytes: 80, Price: 1, RouteIdx: 0, Time: 1}, {Bytes: over - 80, Price: 1, RouteIdx: 0, Time: 2}}},
		{"maxBytes at the epsilon", func() (*State, *traffic.Request, float64) {
			st, req := twoRouteWorld([3]float64{1, 0.6, 0.6}, DefaultAdjust())
			return st, req, 1e-12
		}, []Segment{}},
		{"maxBytes under the epsilon", func() (*State, *traffic.Request, float64) {
			st, req := twoRouteWorld([3]float64{1, 0.6, 0.6}, DefaultAdjust())
			return st, req, 5e-13
		}, []Segment{}},
		{"maxBytes just over the epsilon", func() (*State, *traffic.Request, float64) {
			st, req := twoRouteWorld([3]float64{1, 0.6, 0.6}, DefaultAdjust())
			return st, req, math.Nextafter(1e-12, 1)
		}, []Segment{{Bytes: math.Nextafter(1e-12, 1), Price: 1, RouteIdx: 0, Time: 1}}},
		{"maxBytes zero means demand", func() (*State, *traffic.Request, float64) {
			st, req := twoRouteWorld([3]float64{1, 0.6, 0.6}, DefaultAdjust())
			return st, req, 0
		}, []Segment{{Bytes: 50, Price: 1, RouteIdx: 0, Time: 1}}},
		{"maxBytes negative means demand", func() (*State, *traffic.Request, float64) {
			st, req := twoRouteWorld([3]float64{1, 0.6, 0.6}, DefaultAdjust())
			return st, req, -3
		}, []Segment{{Bytes: 50, Price: 1, RouteIdx: 0, Time: 1}}},
		{"first minimum dead, runner-up live", func() (*State, *traffic.Request, float64) {
			// With the premium rule off a full cell keeps its price, so
			// the full (direct, step 1) stays the first minimum.
			st, req := twoRouteWorld([3]float64{1, 0.6, 0.6}, flat)
			st.Reserve(req.Routes[0], 1, 100)
			return st, req, 50
		}, []Segment{{Bytes: 50, Price: 1, RouteIdx: 0, Time: 2}}},
		{"price tie across routes", func() (*State, *traffic.Request, float64) {
			st, req := twoRouteWorld([3]float64{1, 0.5, 0.5}, flat)
			return st, req, 50
		}, []Segment{{Bytes: 50, Price: 1, RouteIdx: 0, Time: 1}}},
		{"price tie across steps, lower route dearer", func() (*State, *traffic.Request, float64) {
			st, req := twoRouteWorld([3]float64{2, 0.5, 0.5}, flat)
			return st, req, 50
		}, []Segment{{Bytes: 50, Price: 1, RouteIdx: 1, Time: 1}}},
		{"sub-unit premium factor", func() (*State, *traffic.Request, float64) {
			// Past the threshold the direct link gets cheaper: step 2,
			// half full, undercuts step 1.
			st, req := twoRouteWorld([3]float64{1, 0.6, 0.6}, AdjustConfig{Threshold: 0.5, Factor: 0.5})
			st.Reserve(req.Routes[0], 2, 60)
			return st, req, 30
		}, []Segment{{Bytes: 30, Price: 0.5, RouteIdx: 0, Time: 2}}},
		{"window clipped by the horizon", func() (*State, *traffic.Request, float64) {
			st, req := twoRouteWorld([3]float64{1, 0.6, 0.6}, DefaultAdjust())
			req.Start, req.End = 3, 9
			return st, req, 50
		}, []Segment{{Bytes: 50, Price: 1, RouteIdx: 0, Time: 3}}},
		{"window past the horizon", func() (*State, *traffic.Request, float64) {
			st, req := twoRouteWorld([3]float64{1, 0.6, 0.6}, DefaultAdjust())
			req.Start, req.End = 4, 9
			return st, req, 50
		}, []Segment{}},
		{"outage zeroes one edge of the cheapest route", func() (*State, *traffic.Request, float64) {
			// A cut link prices at the premium, 0.3·2 + 0.3 = 0.9: still
			// under the direct link's 1, and with no room at all.
			st, req := twoRouteWorld([3]float64{1, 0.3, 0.3}, DefaultAdjust())
			st.SetOutage(req.Routes[1][0], 1, 100)
			return st, req, 50
		}, []Segment{{Bytes: 50, Price: 0.6, RouteIdx: 1, Time: 2}}},
		{"overlay needed: the quote outgrows the first minimum", func() (*State, *traffic.Request, float64) {
			st, req := twoRouteWorld([3]float64{1, 0.6, 0.6}, DefaultAdjust())
			return st, req, 100
		}, []Segment{{Bytes: 80, Price: 1, RouteIdx: 0, Time: 1}, {Bytes: 20, Price: 1, RouteIdx: 0, Time: 2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, req, maxBytes := tc.build()
			want := quoteMenuReference(st, req, maxBytes)
			var fresh Quoter
			requireMenusBitIdentical(t, "fresh quoter", fresh.Quote(st, req, maxBytes), want)
			requireMenusBitIdentical(t, "pooled quoter", QuoteMenu(st, req, maxBytes), want)
			if len(want.Segments) != len(tc.want) {
				t.Fatalf("reference quoted %+v, the case expects %+v", want.Segments, tc.want)
			}
			for i, w := range tc.want {
				if want.Segments[i] != w {
					t.Fatalf("segment %d is %+v, the case expects %+v", i, want.Segments[i], w)
				}
			}
			if len(want.Segments) == 0 && want.Segments != nil {
				t.Fatal("an empty menu must keep Segments nil")
			}
		})
	}
}

// firstMinimum is the candidate the engine's pricing pass settles on —
// strictly cheapest at zero overlay, lowest index among equals, dead or
// alive — with its room.
func firstMinimum(st *State, req *traffic.Request) (route, step int, room float64, ok bool) {
	best := math.Inf(1)
	for ri, path := range req.Routes {
		for ts := req.Start; ts <= req.End && ts < st.Horizon; ts++ {
			p, r := 0.0, math.Inf(1)
			for _, e := range path {
				p += st.MarginalPrice(e, ts, 0)
				r = math.Min(r, st.segmentRoom(e, ts, 0))
			}
			if p < best {
				best, route, step, room, ok = p, ri, ts, r, true
			}
		}
	}
	return route, step, room, ok
}

// quoteShapes bend a random world toward one boundary of the fast path
// and return the maxBytes to quote it at. Shape numbers are part of the
// FuzzQuoteMenu corpus; append, do not renumber.
const numQuoteShapes = 10

func applyQuoteShape(shape uint8, st *State, req *traffic.Request) float64 {
	route, step, room, ok := firstMinimum(st, req)
	switch shape % numQuoteShapes {
	case 1: // room exactly maxBytes
		if ok && room > 0 && !math.IsInf(room, 1) {
			return room
		}
	case 2: // room one ulp short
		if ok && room > 0 && !math.IsInf(room, 1) {
			return math.Nextafter(room, math.Inf(1))
		}
	case 3:
		return 1e-12
	case 4:
		return -1
	case 5: // fill the first minimum; with the premium off it stays first
		if ok {
			st.Adjust = AdjustConfig{Threshold: 1, Factor: 1}
			e := req.Routes[route][0]
			st.Reserved[e][step] = st.Capacity(e, step)
			st.Invalidate()
		}
	case 6: // every edge one price: ties across routes and steps
		for e := range st.BasePrice {
			for ts := range st.BasePrice[e] {
				st.BasePrice[e][ts] = 0.5
			}
		}
		st.Invalidate()
	case 7:
		st.Adjust = AdjustConfig{Threshold: 0.5, Factor: 0.5}
		st.Invalidate()
	case 8:
		req.End = st.Horizon + 3
	case 9: // cut one edge of the cheapest route
		if ok {
			e := req.Routes[route][len(req.Routes[route])-1]
			st.SetOutage(e, step, st.Net.Edge(e).Capacity)
		}
	}
	return req.Demand
}

// Differential over random worlds bent into every boundary shape.
func TestQuoteDifferentialFastPathShapes(t *testing.T) {
	r := rand.New(rand.NewSource(1515))
	var reused Quoter
	oneSegment := 0
	for trial := 0; trial < 300; trial++ {
		for shape := uint8(0); shape < numQuoteShapes; shape++ {
			st, req := randomQuoteWorld(r)
			maxBytes := applyQuoteShape(shape, st, req)
			label := fmt.Sprintf("trial %d shape %d maxBytes %v", trial, shape, maxBytes)
			want := quoteMenuReference(st, req, maxBytes)
			requireMenusBitIdentical(t, label, reused.Quote(st, req, maxBytes), want)
			if len(want.Segments) == 1 {
				oneSegment++
			}
		}
	}
	if oneSegment == 0 {
		t.Fatal("no trial produced a one-segment menu")
	}
}
