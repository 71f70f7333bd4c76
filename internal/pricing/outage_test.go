package pricing

import (
	"math"
	"testing"

	"pretium/internal/graph"
)

func outageState(horizon int) (*State, graph.EdgeID) {
	n := graph.New()
	a := n.AddNode("a", "r")
	b := n.AddNode("b", "r")
	e := n.AddEdge(a, b, 10)
	return NewState(n, horizon, 1), e
}

func TestSetOutageReducesCapacityAndRestoresExactly(t *testing.T) {
	st, e := outageState(4)
	orig := st.Capacity(e, 1)
	room := st.segmentRoom(e, 1, 0)
	st.SetOutage(e, 1, 7)
	if got := st.Capacity(e, 1); got != 3 {
		t.Errorf("capacity under outage = %v, want 3", got)
	}
	if got := st.Capacity(e, 0); got != orig {
		t.Errorf("outage leaked to another step: %v", got)
	}
	// The quoting cache must see the reduced capacity immediately.
	if got := st.segmentRoom(e, 1, 0); got >= room {
		t.Errorf("cached room %v did not shrink (was %v)", got, room)
	}
	st.SetOutage(e, 1, 0)
	if got := st.Capacity(e, 1); got != orig {
		t.Errorf("capacity after restore = %v, want %v exactly", got, orig)
	}
	if got := st.OutageAt(e, 1); got != 0 {
		t.Errorf("OutageAt after restore = %v, want 0", got)
	}
	if got := st.segmentRoom(e, 1, 0); got != room {
		t.Errorf("cached room after restore = %v, want %v", got, room)
	}
}

// SetOutage stores a cell's total as given — composing outages, and
// clamping each to its link, is chaos.Plan's job — so a total past the
// capacity is kept for OutageAt while Capacity clamps at zero; negative
// and NaN totals are stored as 0.
func TestSetOutageClampsAndSanitizes(t *testing.T) {
	st, e := outageState(2)
	st.SetOutage(e, 0, 25) // stacked past physical capacity
	if got := st.OutageAt(e, 0); got != 25 {
		t.Errorf("over-capacity outage stored as %v, want the unclamped 25", got)
	}
	if got := st.Capacity(e, 0); got != 0 {
		t.Errorf("capacity = %v, want 0", got)
	}
	st.SetOutage(e, 0, -5)
	if got := st.OutageAt(e, 0); got != 0 {
		t.Errorf("negative outage stored as %v, want 0", got)
	}
	st.SetOutage(e, 0, math.NaN())
	if got := st.OutageAt(e, 0); got != 0 {
		t.Errorf("NaN outage stored as %v, want 0", got)
	}
	if got := st.Capacity(e, 0); got != 10 {
		t.Errorf("capacity after sanitized writes = %v, want 10", got)
	}
	// Out-of-range steps are ignored, not panics.
	st.SetOutage(e, -1, 5)
	st.SetOutage(e, 99, 5)
}

func TestOutageVersionCountsEffectiveMutations(t *testing.T) {
	st, e := outageState(3)
	v0 := st.OutageVersion()
	st.SetOutage(e, 0, 5)
	if st.OutageVersion() != v0+1 {
		t.Error("version did not advance on a new outage")
	}
	st.SetOutage(e, 0, 5) // idempotent rewrite
	if st.OutageVersion() != v0+1 {
		t.Error("version advanced on a no-op rewrite")
	}
	st.SetOutage(e, 0, 0)
	if st.OutageVersion() != v0+2 {
		t.Error("version did not advance on restore")
	}
	st.SetOutage(e, 0, 0) // restoring an absent entry: no-op
	if st.OutageVersion() != v0+2 {
		t.Error("version advanced on a no-op restore")
	}
}

// OutageActive must report degradation only inside the queried window,
// clamp out-of-range bounds, and go quiet after an exact restore.
func TestOutageActiveScopesToWindow(t *testing.T) {
	st, e := outageState(4)
	if st.OutageActive(0, 4) {
		t.Error("pristine overlay reported active")
	}
	st.SetOutage(e, 2, 5)
	if !st.OutageActive(0, 4) {
		t.Error("active cut not reported over the full horizon")
	}
	if !st.OutageActive(2, 3) {
		t.Error("active cut not reported in its own step")
	}
	if st.OutageActive(0, 2) {
		t.Error("cut at t=2 reported in [0,2)")
	}
	if st.OutageActive(3, 4) {
		t.Error("cut at t=2 reported in [3,4)")
	}
	// Out-of-range bounds clamp instead of panicking.
	if !st.OutageActive(-3, 99) {
		t.Error("clamped window missed the cut")
	}
	st.SetOutage(e, 2, 0)
	if st.OutageActive(0, 4) {
		t.Error("restored overlay still reported active")
	}
}
