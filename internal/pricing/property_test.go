package pricing

import (
	"math"
	"math/rand"
	"testing"

	"pretium/internal/graph"
	"pretium/internal/traffic"
)

// randomQuoteWorld builds a random small network, price state, and
// request for property tests. All randomness flows from r.
func randomQuoteWorld(r *rand.Rand) (*State, *traffic.Request) {
	n := graph.New()
	nn := 3 + r.Intn(3)
	for i := 0; i < nn; i++ {
		n.AddNode(string(rune('a'+i)), "r")
	}
	for i := 0; i+1 < nn; i++ {
		n.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1+r.Float64()*9)
	}
	for e := 0; e < nn; e++ {
		a, b := r.Intn(nn), r.Intn(nn)
		if a != b {
			n.AddEdge(graph.NodeID(a), graph.NodeID(b), 1+r.Float64()*9)
		}
	}
	horizon := 2 + r.Intn(4)
	st := NewState(n, horizon, 0.2+r.Float64())
	if r.Intn(2) == 0 {
		st.Adjust = AdjustConfig{Threshold: 1, Factor: 1}
	}
	// Random pre-existing reservations.
	for e := 0; e < n.NumEdges(); e++ {
		for t := 0; t < horizon; t++ {
			if r.Float64() < 0.3 {
				st.Reserved[e][t] = r.Float64() * n.Edge(graph.EdgeID(e)).Capacity
			}
		}
	}
	st.Invalidate() // direct Reserved writes bypass the segment cache
	src := graph.NodeID(0)
	dst := graph.NodeID(nn - 1)
	start := r.Intn(horizon)
	req := &traffic.Request{
		ID: 0, Src: src, Dst: dst,
		Routes:  n.KShortestPaths(src, dst, 1+r.Intn(3)),
		Arrival: start, Start: start, End: start + r.Intn(horizon-start),
		Demand: 1 + r.Float64()*30, Value: r.Float64() * 3,
	}
	return st, req
}

// Property (§4.1): every quoted menu is a nondecreasing-marginal (convex)
// price schedule, and Price is consistent with the segment integral.
func TestMenuConvexityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		st, req := randomQuoteWorld(r)
		menu := QuoteMenu(st, req, req.Demand)
		prev := 0.0
		total := 0.0
		for i, s := range menu.Segments {
			if s.Price < prev-1e-9 {
				t.Fatalf("trial %d: marginal prices decrease at segment %d", trial, i)
			}
			if s.Bytes <= 0 {
				t.Fatalf("trial %d: empty segment %d", trial, i)
			}
			prev = s.Price
			total += s.Bytes
		}
		if math.Abs(total-menu.Cap()) > 1e-6 {
			t.Fatalf("trial %d: cap %v != segment sum %v", trial, menu.Cap(), total)
		}
		if menu.Cap() > req.Demand+1e-6 {
			t.Fatalf("trial %d: quoted beyond demand", trial)
		}
		// Price() is convex: midpoint of chord never below the curve.
		x := menu.Cap()
		if x > 0 {
			mid := menu.Price(x / 2)
			chord := menu.Price(x) / 2
			if mid > chord+1e-9 {
				t.Fatalf("trial %d: price not convex: p(x/2)=%v > p(x)/2=%v", trial, mid, chord)
			}
		}
	}
}

// Property (Theorem 5.1 core step): widening the reported time window
// can only (weakly) lower the price at every volume and raise the
// guarantee cap, since the quote minimizes over a superset of
// (route, time) pairs.
func TestWindowMonotonicityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		st, req := randomQuoteWorld(r)
		if req.End >= st.Horizon-1 {
			continue
		}
		wide := *req
		wide.End = req.End + 1
		mNarrow := QuoteMenu(st, req, req.Demand)
		mWide := QuoteMenu(st, &wide, wide.Demand)
		if mWide.Cap() < mNarrow.Cap()-1e-9 {
			t.Fatalf("trial %d: wider window lowered cap: %v < %v", trial, mWide.Cap(), mNarrow.Cap())
		}
		for _, x := range []float64{0.5, 1, mNarrow.Cap() / 2, mNarrow.Cap()} {
			if x <= 0 {
				continue
			}
			if mWide.Price(x) > mNarrow.Price(x)+1e-9 {
				t.Fatalf("trial %d: wider window raised price at x=%v: %v > %v",
					trial, x, mWide.Price(x), mNarrow.Price(x))
			}
		}
	}
}

// Property (Theorem 5.2): the Purchase rule maximizes utility
// v*min(x, cap-extended delivery) - Price(x) over a grid of alternatives.
func TestPurchaseOptimalityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		st, req := randomQuoteWorld(r)
		menu := QuoteMenu(st, req, req.Demand)
		if len(menu.Segments) == 0 {
			continue
		}
		v := req.Value
		buy := menu.Purchase(v, req.Demand)
		utility := func(x float64) float64 { return v*x - menu.Price(x) }
		best := utility(buy)
		for i := 0; i <= 20; i++ {
			x := req.Demand * float64(i) / 20
			if utility(x) > best+1e-6 {
				t.Fatalf("trial %d: purchase %v (u=%v) beaten by x=%v (u=%v); v=%v menu=%+v",
					trial, buy, best, x, utility(x), v, menu.Segments)
			}
		}
	}
}

// Property: admission never overcommits a link — after any sequence of
// admissions, reservations stay within capacity.
func TestAdmissionCapacityInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for trial := 0; trial < 100; trial++ {
		st, _ := randomQuoteWorld(r)
		// Zero out pre-reservations for a clean invariant check.
		for e := range st.Reserved {
			for tt := range st.Reserved[e] {
				st.Reserved[e][tt] = 0
			}
		}
		st.Invalidate()
		for k := 0; k < 8; k++ {
			_, req := randomQuoteWorld(r)
			// Re-target the request onto st's network: regenerate
			// against st to keep routes valid.
			req2 := *req
			req2.Routes = nil
			src := graph.NodeID(0)
			dst := graph.NodeID(st.Net.NumNodes() - 1)
			req2.Src, req2.Dst = src, dst
			req2.Routes = st.Net.KShortestPaths(src, dst, 2)
			if len(req2.Routes) == 0 {
				continue
			}
			if req2.End >= st.Horizon {
				req2.End = st.Horizon - 1
			}
			if req2.Start > req2.End {
				req2.Start = req2.End
			}
			NewAdmitter(st).Admit(&req2)
		}
		for e := 0; e < st.Net.NumEdges(); e++ {
			for tt := 0; tt < st.Horizon; tt++ {
				if st.Reserved[e][tt] > st.Capacity(graph.EdgeID(e), tt)+1e-6 {
					t.Fatalf("trial %d: edge %d overcommitted at t=%d: %v > %v",
						trial, e, tt, st.Reserved[e][tt], st.Capacity(graph.EdgeID(e), tt))
				}
			}
		}
	}
}
