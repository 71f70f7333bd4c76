package lp_test

import (
	"testing"

	"pretium/internal/exp"
	"pretium/internal/lp"
	"pretium/internal/obs"
)

// TestBlandResumeInTheControlLoop checks every Bland pick of two controller
// runs against a scan from zero, and the row copy's layout after every
// pivot: the golden scenario (Small at seed 7, whose counters internal/obs
// pins), whose LPs never stall long enough to fall back on Bland's rule,
// and the same seed at Default scale, whose Price Computer solves do.
func TestBlandResumeInTheControlLoop(t *testing.T) {
	seen := lp.CheckPicks(t, true)
	var pcPicks, pcPriced int64
	for _, sc := range []exp.Scale{exp.Small(), exp.Default()} {
		rec := obs.NewRecorder(nil)
		if _, err := exp.NewSetup(sc, exp.WithSeed(7), exp.WithObs(rec)).RunPretium(nil); err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		m := rec.Metrics()
		pcPicks += m.Counter("pc.lp.bland_picks").Value()
		pcPriced += m.Counter("pc.lp.bland_priced").Value()
	}
	got := seen()
	t.Logf("%d Bland picks checked, %d of them in PC solves, which priced %d columns; scans from zero priced %d for all picks",
		got.Picks, pcPicks, pcPriced, got.ScanPriced)
	if pcPicks == 0 {
		t.Fatal("no Price Computer solve made a Bland pick")
	}
	if got.Layouts == 0 {
		t.Fatal("no layout checked")
	}
}
