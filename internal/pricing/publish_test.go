package pricing

import (
	"math"
	"testing"

	"pretium/internal/graph"
)

func publishTestState(t *testing.T) *State {
	t.Helper()
	net := lineNetwork(t, 3)
	st := NewState(net, 4, 1.0)
	setUniformOutage(st, 0.1)
	st.SetOutage(0, 1, 2.5)
	st.Reserve(graph.Path{0, 1}, 2, 3.0)
	return st
}

// lineNetwork builds an n-node chain a-b-c-… with same-region nodes.
func lineNetwork(t *testing.T, n int) *graph.Network {
	t.Helper()
	net := graph.New()
	names := []string{"a", "b", "c", "d", "e", "f"}
	ids := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = net.AddNode(names[i], "r")
	}
	for i := 0; i+1 < n; i++ {
		net.AddEdge(ids[i], ids[i+1], 100)
	}
	return net
}

func mustPanic(t *testing.T, op string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s on poisoned state did not panic", op)
		}
	}()
	f()
}

// Published states poison every planning mutator but still accept
// Reserve; sealed states poison Reserve too. This is the enforcement
// half of the Invalidate contract: once a state is shared, snapshot
// construction is the only mutation point.
func TestPublishPoisonsPlanningMutators(t *testing.T) {
	st := publishTestState(t)
	st.MarkPublished()
	if !st.Published() || st.Sealed() {
		t.Fatalf("stage after MarkPublished: published=%v sealed=%v", st.Published(), st.Sealed())
	}

	mustPanic(t, "Invalidate", func() { st.Invalidate() })
	mustPanic(t, "SetBasePrice", func() { st.SetBasePrice(0, 0, 2) })
	mustPanic(t, "SetOutage", func() { st.SetOutage(0, 0, 1) })
	mustPanic(t, "SetReserved", func() { _ = st.SetReserved(st.Reserved) })
	mustPanic(t, "SetPricesWindow", func() { _ = st.SetPricesWindow(0, st.BasePrice) })

	// Room commits stay legal on a published state: the service
	// serializes them per edge.
	before := st.Reserved[0][1]
	st.Reserve(graph.Path{0}, 1, 1.5)
	if got := st.Reserved[0][1]; got != before+1.5 {
		t.Fatalf("Reserve on published state: got %v want %v", got, before+1.5)
	}
}

func TestSealPoisonsReserve(t *testing.T) {
	st := publishTestState(t)
	st.Seal()
	if !st.Published() || !st.Sealed() {
		t.Fatalf("stage after Seal: published=%v sealed=%v", st.Published(), st.Sealed())
	}
	mustPanic(t, "Reserve", func() { st.Reserve(graph.Path{0}, 0, 1) })
	mustPanic(t, "SetBasePrice", func() { st.SetBasePrice(0, 0, 2) })

	// Reads stay legal and coherent on a sealed state.
	if p := st.MarginalPrice(0, 0, 0); p <= 0 || math.IsNaN(p) {
		t.Fatalf("MarginalPrice on sealed state: %v", p)
	}
}

// Clone must be deep: mutating the clone leaves the original untouched
// (and vice versa), including the segment caches and outage overlay.
func TestCloneIndependence(t *testing.T) {
	st := publishTestState(t)
	st.MarkPublished()

	c := st.Clone()
	if c.Published() {
		t.Fatal("clone of a published state must start mutable")
	}
	if c.Net != st.Net {
		t.Fatal("clone must share the immutable network")
	}

	// Snapshot original views.
	origPrice := st.MarginalPrice(0, 0, 0)
	origRoom := st.segmentRoom(0, 1, 0)
	origOut := st.OutageAt(0, 1)
	origRes := st.Reserved[0][2]

	c.SetBasePrice(0, 0, 9.0)
	c.SetOutage(0, 1, 0) // restore the outage in the clone only
	c.Reserve(graph.Path{0}, 2, 7)

	if got := st.MarginalPrice(0, 0, 0); got != origPrice {
		t.Fatalf("original price moved after clone mutation: %v -> %v", origPrice, got)
	}
	if got := st.segmentRoom(0, 1, 0); got != origRoom {
		t.Fatalf("original room moved after clone mutation: %v -> %v", origRoom, got)
	}
	if got := st.OutageAt(0, 1); got != origOut {
		t.Fatalf("original outage moved after clone mutation: %v -> %v", origOut, got)
	}
	if got := st.Reserved[0][2]; got != origRes {
		t.Fatalf("original reservation moved after clone mutation: %v -> %v", origRes, got)
	}
	if got := c.OutageAt(0, 1); got != 0 {
		t.Fatalf("clone outage not restored: %v", got)
	}

	// And the clone's caches are coherent: compare against a fresh
	// Invalidate on a second clone.
	ref := c.Clone()
	ref.Invalidate()
	for e := 0; e < st.Net.NumEdges(); e++ {
		for ts := 0; ts < st.Horizon; ts++ {
			if a, b := c.MarginalPrice(graph.EdgeID(e), ts, 0), ref.MarginalPrice(graph.EdgeID(e), ts, 0); a != b {
				t.Fatalf("clone cache incoherent at (%d,%d): price %v vs %v", e, ts, a, b)
			}
			if a, b := c.segmentRoom(graph.EdgeID(e), ts, 0), ref.segmentRoom(graph.EdgeID(e), ts, 0); a != b {
				t.Fatalf("clone cache incoherent at (%d,%d): room %v vs %v", e, ts, a, b)
			}
		}
	}
}

// A Successor pair takes its planning inputs from the plan and its room
// from whichever state CarryRoom names — the plan (SAM re-planned) or
// the predecessor (a price refresh; its committed room carries forward).
// Either way live matches a from-scratch Invalidate, view equals live
// cell for cell, and the stages are set.
func TestSuccessorCarriesPlanAndRoom(t *testing.T) {
	plan := publishTestState(t)
	plan.SetBasePrice(1, 3, 4.25)
	plan.Adjust = AdjustConfig{Threshold: 0.5, Factor: 3}
	plan.Invalidate()

	for _, adopt := range []bool{false, true} {
		cur := NewState(plan.Net, plan.Horizon, 1.0)
		cur.Reserve(graph.Path{1}, 3, 11) // room the plan knows nothing of
		cur.MarkPublished()

		live, view, err := cur.Successor(plan)
		if err != nil {
			t.Fatalf("Successor: %v", err)
		}
		room := cur
		if adopt {
			room = plan
		}
		live.CarryRoom(view, room)

		if !live.Published() || live.Sealed() || !view.Sealed() {
			t.Fatalf("adopt=%v: stages live published=%v sealed=%v, view sealed=%v",
				adopt, live.Published(), live.Sealed(), view.Sealed())
		}
		if live.BasePrice[1][3] != 4.25 || live.Adjust != plan.Adjust || live.OutageAt(0, 1) != plan.OutageAt(0, 1) ||
			live.OutageAt(1, 0) != plan.OutageAt(1, 0) || live.OutageVersion() != plan.OutageVersion() {
			t.Fatalf("adopt=%v: planning inputs not adopted", adopt)
		}
		ref := live.Clone()
		ref.Invalidate()
		for e := range live.Reserved {
			for ts := range live.Reserved[e] {
				id := graph.EdgeID(e)
				if got, want := live.Reserved[e][ts], room.Reserved[e][ts]; got != want {
					t.Fatalf("adopt=%v: Reserved[%d][%d]=%v want %v", adopt, e, ts, got, want)
				}
				if a, b := live.MarginalPrice(id, ts, 0), ref.MarginalPrice(id, ts, 0); a != b {
					t.Fatalf("adopt=%v: price cache incoherent at (%d,%d): %v vs %v", adopt, e, ts, a, b)
				}
				if a, b := live.segmentRoom(id, ts, 0), ref.segmentRoom(id, ts, 0); a != b {
					t.Fatalf("adopt=%v: room cache incoherent at (%d,%d): %v vs %v", adopt, e, ts, a, b)
				}
				if view.Reserved[e][ts] != live.Reserved[e][ts] ||
					view.MarginalPrice(id, ts, 0) != live.MarginalPrice(id, ts, 0) ||
					view.segmentRoom(id, ts, 0) != live.segmentRoom(id, ts, 0) {
					t.Fatalf("adopt=%v: view differs from live at (%d,%d)", adopt, e, ts)
				}
			}
		}

		// A commit moves live alone: the pair owns its room separately.
		before := view.segmentRoom(0, 0, 0)
		live.Reserve(graph.Path{0}, 0, 5)
		if view.Reserved[0][0] == live.Reserved[0][0] || view.segmentRoom(0, 0, 0) != before {
			t.Fatalf("adopt=%v: a commit into live moved the view", adopt)
		}
		// The plan stays the caller's: nothing in the pair aliases it.
		down := plan.OutageAt(1, 2)
		plan.SetBasePrice(0, 0, 77)
		plan.SetOutage(1, 2, down+1)
		if live.BasePrice[0][0] == 77 || view.BasePrice[0][0] == 77 || live.OutageAt(1, 2) != down {
			t.Fatalf("adopt=%v: the pair aliases the plan's arrays", adopt)
		}
		plan.SetBasePrice(0, 0, 1)
		plan.SetOutage(1, 2, down)

		// What the pair shares is poisoned on both and deep-copied by Clone.
		mustPanic(t, "SetBasePrice", func() { live.SetBasePrice(0, 0, 2) })
		mustPanic(t, "SetOutage", func() { view.SetOutage(0, 0, 1) })
		c := live.Clone()
		c.SetBasePrice(0, 0, 9)
		c.SetOutage(1, 1, 50)
		c.SetOutage(0, 1, 0)
		if live.BasePrice[0][0] == 9 || view.OutageAt(1, 1) == 50 || view.OutageAt(0, 1) != plan.OutageAt(0, 1) {
			t.Fatalf("adopt=%v: mutating a clone reached the published pair", adopt)
		}
	}
}

func TestSuccessorShapeMismatch(t *testing.T) {
	a := NewState(lineNetwork(t, 3), 4, 1)
	b := NewState(lineNetwork(t, 3), 5, 1)
	if _, _, err := a.Successor(b); err == nil {
		t.Fatal("horizon mismatch not rejected")
	}
	c := NewState(lineNetwork(t, 2), 4, 1)
	if _, _, err := a.Successor(c); err == nil {
		t.Fatal("edge-count mismatch not rejected")
	}
}
