package pricing

import (
	"reflect"
	"testing"

	"pretium/internal/obs"
)

// TestQuoterObsCountsAndNeutrality checks that quote-engine telemetry
// records plausible counts and — critically — that enabling it does not
// change the quoted menus.
func TestQuoterObsCountsAndNeutrality(t *testing.T) {
	st, req := benchQuoteWorld(4, 12)

	var plain Quoter
	want := plain.Quote(st, req, req.Demand)

	m := obs.NewMetrics()
	var q Quoter
	q.SetObs(m)
	got := q.Quote(st, req, req.Demand)
	if !reflect.DeepEqual(got.Segments, want.Segments) {
		t.Fatalf("observed quoter changed the menu:\n%v\nvs\n%v", got.Segments, want.Segments)
	}

	if n := m.Counter("quoter.quotes").Value(); n != 1 {
		t.Fatalf("quoter.quotes = %d, want 1", n)
	}
	// 4 routes x 12 steps = 48 initial heap candidates.
	if hs := m.Histogram("quoter.heap_size", nil); hs.Count() != 1 || hs.Sum() != 48 {
		t.Fatalf("heap_size count=%d sum=%v, want 1/48", hs.Count(), hs.Sum())
	}
	if seg := m.Histogram("quoter.menu_segments", nil); seg.Sum() != float64(len(want.Segments)) {
		t.Fatalf("menu_segments sum=%v, want %d", seg.Sum(), len(want.Segments))
	}
	// Quoting to exhaustion crosses premium thresholds, so re-keys fire.
	if rk := m.Counter("quoter.rekeys").Value(); rk <= 0 {
		t.Fatalf("quoter.rekeys = %d, want > 0", rk)
	}

	// A quote the cheapest candidate covers never builds the heap, and
	// still reports its candidate count, its one segment and no re-keys.
	rekeys := m.Counter("quoter.rekeys").Value()
	if one := q.Quote(st, req, 1e-3); len(one.Segments) != 1 {
		t.Fatalf("tiny quote has %d segments, want 1", len(one.Segments))
	}
	if hs := m.Histogram("quoter.heap_size", nil); hs.Count() != 2 || hs.Sum() != 96 {
		t.Fatalf("heap_size after a one-segment quote: count=%d sum=%v, want 2/96", hs.Count(), hs.Sum())
	}
	if seg := m.Histogram("quoter.menu_segments", nil); seg.Sum() != float64(len(want.Segments)+1) {
		t.Fatalf("menu_segments sum=%v, want %d", seg.Sum(), len(want.Segments)+1)
	}
	if rk := m.Counter("quoter.rekeys").Value(); rk != rekeys {
		t.Fatalf("one-segment quote re-keyed %d candidates", rk-rekeys)
	}

	// SetObs(nil) turns telemetry back off.
	q.SetObs(nil)
	q.Quote(st, req, req.Demand)
	if n := m.Counter("quoter.quotes").Value(); n != 2 {
		t.Fatalf("quoter.quotes advanced after SetObs(nil): %d", n)
	}
}
