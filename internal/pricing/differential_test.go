package pricing

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"pretium/internal/graph"
	"pretium/internal/traffic"
)

// cloneState deep-copies a state's matrices (the immutable network is
// shared) so two engines can admit the same stream independently.
func cloneState(st *State) *State {
	c := NewState(st.Net, st.Horizon, 0)
	c.Adjust = st.Adjust
	for e := range st.BasePrice {
		copy(c.BasePrice[e], st.BasePrice[e])
		copy(c.Reserved[e], st.Reserved[e])
	}
	c.Invalidate()
	return c
}

// requireMenusIdentical asserts the two menus are identical — equal cap,
// equal segment count, and every segment field equal with ==, no
// tolerance. This is the correctness bar for the heap engine: not
// "close", the same menu.
func requireMenusIdentical(t *testing.T, label string, got, want *Menu) {
	t.Helper()
	if got.capBytes != want.capBytes {
		t.Fatalf("%s: cap mismatch: heap %v, reference %v", label, got.capBytes, want.capBytes)
	}
	if len(got.Segments) != len(want.Segments) {
		t.Fatalf("%s: segment count mismatch: heap %d %+v, reference %d %+v",
			label, len(got.Segments), got.Segments, len(want.Segments), want.Segments)
	}
	for i := range want.Segments {
		if got.Segments[i] != want.Segments[i] {
			t.Fatalf("%s: segment %d differs: heap %+v, reference %+v",
				label, i, got.Segments[i], want.Segments[i])
		}
	}
}

// requireExactlyMonotone asserts segment prices never decrease, with no
// epsilon: the engines emit segments in heap/first-minimum order, and
// marginal prices only rise as segments fill, so monotonicity is exact.
// This is what lets QuoteMenu skip the defensive final sort.
func requireExactlyMonotone(t *testing.T, label string, m *Menu) {
	t.Helper()
	for i := 1; i < len(m.Segments); i++ {
		if m.Segments[i].Price < m.Segments[i-1].Price {
			t.Fatalf("%s: segment prices decrease at %d: %v after %v",
				label, i, m.Segments[i].Price, m.Segments[i-1].Price)
		}
	}
}

// Differential: on randomized networks, windows, reservations, and
// premium configs, the heap engine's menu is identical to the reference
// scan's, across several maxBytes regimes (partial, full-demand, and
// quote-to-exhaustion).
func TestQuoteDifferentialRandom(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 400; trial++ {
		st, req := randomQuoteWorld(r)
		for _, mb := range []float64{req.Demand, 0, req.Demand / 3, 1e12} {
			label := fmt.Sprintf("trial %d maxBytes %v", trial, mb)
			want := quoteMenuReference(st, req, mb)
			got := QuoteMenu(st, req, mb)
			requireMenusIdentical(t, label, got, want)
			requireExactlyMonotone(t, label, got)
		}
	}
}

// Differential under a sub-unit premium factor: filling past the
// threshold *lowers* the marginal price, so re-keyed candidates move
// toward the heap root — the direction the siftUp half of fix repairs.
func TestQuoteDifferentialSubUnitFactor(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		st, req := randomQuoteWorld(r)
		st.Adjust = AdjustConfig{Threshold: 0.3 + r.Float64()*0.5, Factor: 0.25 + r.Float64()*0.5}
		st.Invalidate()
		label := fmt.Sprintf("trial %d", trial)
		want := quoteMenuReference(st, req, 1e12)
		got := QuoteMenu(st, req, 1e12)
		requireMenusIdentical(t, label, got, want)
	}
}

// Differential with the network exhausted inside the request window:
// both engines must agree segment-for-segment up to the point capacity
// runs out, and on fully saturated edges return the empty menu, which
// prices any positive volume at +Inf.
func TestQuoteDifferentialExhausted(t *testing.T) {
	r := rand.New(rand.NewSource(4444))
	for trial := 0; trial < 200; trial++ {
		st, req := randomQuoteWorld(r)
		full := trial%2 == 0
		for e := range st.Reserved {
			cap := st.Net.Edge(graph.EdgeID(e)).Capacity
			for tt := range st.Reserved[e] {
				if full || r.Intn(2) == 0 {
					st.Reserved[e][tt] = cap
				}
			}
		}
		st.Invalidate()
		label := fmt.Sprintf("trial %d full=%v", trial, full)
		want := quoteMenuReference(st, req, 1e12)
		got := QuoteMenu(st, req, 1e12)
		requireMenusIdentical(t, label, got, want)
		if full {
			if len(got.Segments) != 0 || got.Cap() != 0 {
				t.Fatalf("%s: saturated network quoted a non-empty menu: %+v", label, got.Segments)
			}
			if p := got.Price(1); !math.IsInf(p, 1) {
				t.Fatalf("%s: empty menu priced 1 byte at %v, want +Inf", label, p)
			}
		}
	}
}

// Differential over whole admission sequences: serving the same arrival
// stream through the Admitter (heap engine) and through the reference
// scan + Commit must produce identical admission records and leave the
// two states with identical reservation plans.
func TestQuoteDifferentialAdmissionSequence(t *testing.T) {
	r := rand.New(rand.NewSource(4646))
	for trial := 0; trial < 100; trial++ {
		stHeap, _ := randomQuoteWorld(r)
		stRef := cloneState(stHeap)
		ad := NewAdmitter(stHeap)

		src := graph.NodeID(0)
		dst := graph.NodeID(stHeap.Net.NumNodes() - 1)
		routes := stHeap.Net.KShortestPaths(src, dst, 3)
		if len(routes) == 0 {
			continue
		}
		for k := 0; k < 12; k++ {
			start := r.Intn(stHeap.Horizon)
			req := &traffic.Request{
				Src: src, Dst: dst, Routes: routes,
				Arrival: start, Start: start, End: start + r.Intn(stHeap.Horizon-start),
				Demand: 1 + r.Float64()*20, Value: r.Float64() * 4,
			}
			label := fmt.Sprintf("trial %d req %d", trial, k)

			refMenu := quoteMenuReference(stRef, req, req.Demand)
			refAdm := Commit(stRef, req, refMenu, refMenu.Purchase(req.Value, req.Demand))
			adm := ad.Admit(req)

			if (adm == nil) != (refAdm == nil) {
				t.Fatalf("%s: admit decision diverged: heap=%v reference=%v", label, adm != nil, refAdm != nil)
			}
			if adm == nil {
				continue
			}
			requireMenusIdentical(t, label, adm.Menu, refAdm.Menu)
			if adm.Bought != refAdm.Bought || adm.Guaranteed != refAdm.Guaranteed ||
				adm.Payment != refAdm.Payment || adm.Lambda != refAdm.Lambda {
				t.Fatalf("%s: admission record diverged:\nheap %+v\nreference %+v", label, adm, refAdm)
			}
			if len(adm.Allocs) != len(refAdm.Allocs) {
				t.Fatalf("%s: alloc count diverged: %d vs %d", label, len(adm.Allocs), len(refAdm.Allocs))
			}
			for i := range adm.Allocs {
				if adm.Allocs[i] != refAdm.Allocs[i] {
					t.Fatalf("%s: alloc %d diverged: %+v vs %+v", label, i, adm.Allocs[i], refAdm.Allocs[i])
				}
			}
		}
		for e := range stHeap.Reserved {
			for tt := range stHeap.Reserved[e] {
				if stHeap.Reserved[e][tt] != stRef.Reserved[e][tt] {
					t.Fatalf("trial %d: reservation plans diverged at edge %d t %d: %v vs %v",
						trial, e, tt, stHeap.Reserved[e][tt], stRef.Reserved[e][tt])
				}
			}
		}
	}
}

// A Quoter reused across many unrelated quotes must behave exactly like
// a fresh one — i.e. reset() leaves no residue in the scratch arrays.
func TestQuoterReuseMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(4848))
	var reused Quoter
	for trial := 0; trial < 200; trial++ {
		st, req := randomQuoteWorld(r)
		var fresh Quoter
		label := fmt.Sprintf("trial %d", trial)
		requireMenusIdentical(t, label, reused.Quote(st, req, req.Demand), fresh.Quote(st, req, req.Demand))
	}
}

// Sharded concurrent serving: one Admitter + State per goroutine over
// the same arrival stream must be race-free (run under -race by make
// check) and fully deterministic — every shard ends with the same
// admissions and the same reservation plan.
func TestConcurrentAdmissionShards(t *testing.T) {
	r := rand.New(rand.NewSource(5050))
	proto, _ := randomQuoteWorld(r)
	src := graph.NodeID(0)
	dst := graph.NodeID(proto.Net.NumNodes() - 1)
	routes := proto.Net.KShortestPaths(src, dst, 3)
	if len(routes) == 0 {
		t.Skip("random world has no route")
	}
	var reqs []*traffic.Request
	for k := 0; k < 32; k++ {
		start := r.Intn(proto.Horizon)
		reqs = append(reqs, &traffic.Request{
			Src: src, Dst: dst, Routes: routes,
			Arrival: start, Start: start, End: start + r.Intn(proto.Horizon-start),
			Demand: 1 + r.Float64()*20, Value: r.Float64() * 4,
		})
	}

	const shards = 8
	adms := make([][]*Admission, shards)
	states := make([]*State, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		st := cloneState(proto)
		states[s] = st
		wg.Add(1)
		go func(s int, st *State) {
			defer wg.Done()
			ad := NewAdmitter(st)
			for _, r := range reqs {
				adms[s] = append(adms[s], ad.Admit(r))
			}
		}(s, st)
	}
	wg.Wait()

	for s := 1; s < shards; s++ {
		if len(adms[s]) != len(adms[0]) {
			t.Fatalf("shard %d returned %d admissions, shard 0 returned %d", s, len(adms[s]), len(adms[0]))
		}
		for i := range adms[0] {
			a0, as := adms[0][i], adms[s][i]
			if (a0 == nil) != (as == nil) {
				t.Fatalf("shard %d req %d: decision diverged", s, i)
			}
			if a0 == nil {
				continue
			}
			if a0.Payment != as.Payment || a0.Guaranteed != as.Guaranteed {
				t.Fatalf("shard %d req %d: records diverged: %+v vs %+v", s, i, a0, as)
			}
		}
		for e := range states[0].Reserved {
			for tt := range states[0].Reserved[e] {
				if states[0].Reserved[e][tt] != states[s].Reserved[e][tt] {
					t.Fatalf("shard %d: reservation plan diverged at edge %d t %d", s, e, tt)
				}
			}
		}
	}
}

// The empty menu's contract (an unroutable request): zero volume is
// free, any positive volume is +Inf, nothing can be purchased, and
// Commit declines even a forced positive purchase.
func TestEmptyMenuContract(t *testing.T) {
	m := &Menu{}
	if p := m.Price(0); p != 0 {
		t.Fatalf("empty menu Price(0) = %v, want 0", p)
	}
	if p := m.Price(-1); p != 0 {
		t.Fatalf("empty menu Price(-1) = %v, want 0", p)
	}
	if p := m.Price(0.001); !math.IsInf(p, 1) {
		t.Fatalf("empty menu Price(0.001) = %v, want +Inf", p)
	}
	if !math.IsInf(m.Marginal(1), 1) {
		t.Fatalf("empty menu Marginal(1) = %v, want +Inf", m.Marginal(1))
	}
	if b := m.Purchase(1e9, 10); b != 0 {
		t.Fatalf("empty menu Purchase = %v, want 0", b)
	}

	n := graph.New()
	n.AddNode("a", "r")
	n.AddNode("b", "r")
	n.AddEdge(0, 1, 10)
	st := NewState(n, 2, 1)
	req := &traffic.Request{Src: 0, Dst: 1, Routes: n.KShortestPaths(0, 1, 1), Demand: 5, Value: 100}
	if adm := Commit(st, req, m, 5); adm != nil {
		t.Fatalf("Commit on an empty menu admitted: %+v", adm)
	}
}
