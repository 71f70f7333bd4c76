package pricing

import (
	"math"

	"pretium/internal/graph"
	"pretium/internal/traffic"
)

// quoteMenuReference is the executable specification of menu assembly:
// the original O(segments × routes × window × path-len) scan with a
// map-backed usage overlay. The production path (Quoter) is an
// incremental heap over the same candidate set and must produce
// byte-identical menus — same segments, same cap, in the same order —
// which the differential tests enforce against this function. Keep it
// dead simple and do not optimize it.
//
// Selection is the exact first-minimum: strictly cheaper replaces, so
// among exactly-equal prices the lowest candidate index (route-major,
// time-minor) wins. That is precisely the (price, index) lexicographic
// order the heap engine maintains. (The pre-heap scan preferred an
// earlier candidate even when a later one was cheaper by up to 1e-12 — a
// fold artifact, not a spec'd tie rule — and that sub-epsilon preference
// is deliberately dropped.)
func quoteMenuReference(st *State, req *traffic.Request, maxBytes float64) *Menu {
	if maxBytes <= 0 {
		maxBytes = req.Demand
	}
	// Scratch usage overlay so quoting never mutates st.
	type et struct {
		e graph.EdgeID
		t int
	}
	scratch := make(map[et]float64)

	type refCandidate struct {
		routeIdx int
		time     int
	}
	var cands []refCandidate
	for ri := range req.Routes {
		for t := req.Start; t <= req.End && t < st.Horizon; t++ {
			cands = append(cands, refCandidate{routeIdx: ri, time: t})
		}
	}

	menu := &Menu{}
	quoted := 0.0
	for quoted < maxBytes-1e-12 {
		bestPrice := math.Inf(1)
		bestIdx := -1
		bestRoom := 0.0
		for ci, c := range cands {
			route := req.Routes[c.routeIdx]
			price := 0.0
			room := math.Inf(1)
			for _, e := range route {
				ex := scratch[et{e, c.time}]
				price += st.MarginalPrice(e, c.time, ex)
				if r := st.segmentRoom(e, c.time, ex); r < room {
					room = r
				}
			}
			if room <= 1e-12 {
				continue
			}
			if price < bestPrice {
				bestPrice, bestIdx, bestRoom = price, ci, room
			}
		}
		if bestIdx < 0 {
			break // network exhausted within the window
		}
		c := cands[bestIdx]
		take := math.Min(bestRoom, maxBytes-quoted)
		// Merge with the previous segment when identical in price and
		// placement to keep menus compact.
		if k := len(menu.Segments) - 1; k >= 0 &&
			menu.Segments[k].Price == bestPrice &&
			menu.Segments[k].RouteIdx == c.routeIdx &&
			menu.Segments[k].Time == c.time {
			menu.Segments[k].Bytes += take
		} else {
			menu.Segments = append(menu.Segments, Segment{
				Bytes: take, Price: bestPrice, RouteIdx: c.routeIdx, Time: c.time,
			})
		}
		quoted += take
		for _, e := range req.Routes[c.routeIdx] {
			scratch[et{e, c.time}] += take
		}
	}
	menu.capBytes = quoted
	return menu
}
