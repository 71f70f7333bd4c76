package exp

import (
	"fmt"
	"os"
	"testing"

	"pretium/internal/chaos"
	"pretium/internal/core"
	"pretium/internal/graph"
)

// rowCols indexes a row's columns by name.
func rowCols(r Row) map[string]float64 {
	m := make(map[string]float64, len(r.Columns))
	for _, c := range r.Columns {
		m[c.Name] = c.Value
	}
	return m
}

// TestGauntletSmall runs every scenario at small scale under the whole
// contract: the run completes, usage respects nameplate and surviving
// capacity on every link at every step, refunds conserve to the cent,
// welfare loss stays within bound, and no scenario that leaves SAM
// running reneges a byte.
func TestGauntletSmall(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rows, err := Gauntlet(Small(), seed)
			if err != nil {
				t.Fatal(err)
			}
			scens := DefaultScenarios(NewSetup(Small(), WithLoad(2), WithSeed(seed)))
			if len(rows) != len(scens) {
				t.Fatalf("gauntlet produced %d rows, want %d (one per scenario)", len(rows), len(scens))
			}
			for i, r := range rows {
				c := rowCols(r)
				if r.Label == "cut-with-dead-solver" && c["worstLevel"] != float64(core.LevelRepairSkipped) {
					// The ladder bottomed out: the reneges are visible
					// rather than silent.
					t.Errorf("%s: worstLevel = %v, want repair-skipped (%d)",
						r.Label, c["worstLevel"], core.LevelRepairSkipped)
				}
				if !stopsSAM(scens[i].Injector, Small().Steps) && c["reneged"] != 0 {
					t.Errorf("%s: reneged %v bytes with a healthy solver", r.Label, c["reneged"])
				}
				if (c["preempted"] > 0) != (c["refunded"] > 0) {
					t.Errorf("%s: preempted=%v but refunded=%v — refunds must accompany preemption",
						r.Label, c["preempted"], c["refunded"])
				}
			}
		})
	}
}

// TestGauntletMedium runs the same contract at the headline scale.
func TestGauntletMedium(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale gauntlet skipped in -short mode")
	}
	rows, err := Gauntlet(Medium(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(DefaultScenarios(NewSetup(Medium(), WithLoad(2), WithSeed(7)))); len(rows) != want {
		t.Fatalf("gauntlet produced %d rows, want %d", len(rows), want)
	}
}

// TestGauntletPaper is the acceptance run at the paper's topology scale.
// It is opt-in (hours of simplex time on one core): set
// PRETIUM_PAPER_GAUNTLET=1 to run it.
func TestGauntletPaper(t *testing.T) {
	if os.Getenv("PRETIUM_PAPER_GAUNTLET") == "" {
		t.Skip("set PRETIUM_PAPER_GAUNTLET=1 to run the paper-scale gauntlet")
	}
	if _, err := Gauntlet(Paper(), 7); err != nil {
		t.Fatal(err)
	}
}

// TestStopsSAM pins the renege rule: only an injector that fails or times
// out the SAM solve at some step of the horizon may leave reneged bytes.
func TestStopsSAM(t *testing.T) {
	const steps = 12
	samOut := chaos.SolverOutage{Module: chaos.ModuleSAM, From: 4, To: 8, Mode: chaos.Fail}
	cases := []struct {
		name string
		inj  chaos.Injector
		want bool
	}{
		{"sam-outage", samOut, true},
		{"sam-outage-in-plan", chaos.Plan{chaos.Outage{Edges: []graph.EdgeID{0}, From: 1, To: 3}, samOut}, true},
		{"sam-timeout", chaos.SolverOutage{Module: chaos.ModuleSAM, From: 0, To: 0, Mode: chaos.Timeout}, true},
		{"sam-outage-past-horizon", chaos.SolverOutage{Module: chaos.ModuleSAM, From: steps, To: 2 * steps}, false},
		{"pc-outage", chaos.SolverOutage{Module: chaos.ModulePC, From: 0, To: steps - 1, Mode: chaos.Fail}, false},
		{"link-cut", chaos.Outage{Edges: []graph.EdgeID{0}, From: 0, To: steps - 1}, false},
		{"price-corruption", chaos.PriceCorruption{From: 0, To: steps - 1, Factor: 0}, false},
		{"capacity-flap", chaos.Outage{Edges: []graph.EdgeID{0}, From: 0, To: steps - 1, Survive: 0.5, Period: 1}, false},
	}
	for _, c := range cases {
		if got := stopsSAM(c.inj, steps); got != c.want {
			t.Errorf("%s: stopsSAM = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestRunScenarioSAMOutageDegrades spot-checks the runner's outputs on a
// total SAM outage: the run must degrade (greedy events present) yet stay
// comparable to the clean run.
func TestRunScenarioSAMOutageDegrades(t *testing.T) {
	s := NewSetup(Small(), WithLoad(2), WithSeed(1))
	clean, err := s.RunPretium(nil)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Report.Welfare <= 0 {
		t.Errorf("clean welfare %v, want positive (reference run broken)", clean.Report.Welfare)
	}
	r, err := s.RunScenario(clean, Scenario{
		Name:           "sam-outage-all",
		Injector:       chaos.SolverOutage{Module: chaos.ModuleSAM, From: 0, To: s.Scale.Steps - 1, Mode: chaos.Fail},
		MaxWelfareLoss: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Run.Controller.Health.Degraded() {
		t.Error("total SAM outage left the health report clean")
	}
	greedy := 0
	for _, e := range r.Run.Controller.Health.EventsAt(core.ModuleSAM) {
		if e.Level == core.LevelGreedy {
			greedy++
		}
	}
	if greedy == 0 {
		t.Error("no greedy-fallback events under a total SAM outage")
	}
}

// TestRunScenarioSRLGPreempts pins the preempt-and-refund rung end to end.
// Severing every edge out of the fattest link's tail site strands
// guarantees no re-route can save, so the run must finish with explicit
// refunds, a repair-preempt event, and zero reneges.
//
// The mid-run case is the regression test for the repair install's
// reservation accounting. Repair runs *before* step t's admissions
// (unlike the SAM install, which runs after them), so the rebuilt
// reservation matrix must keep step t reserved — releasing it let
// same-step arrivals be quoted into cells the surviving plans still
// occupied, the joint LP went infeasible, and SAM's relaxed rung reneged
// 153.6 bytes silently at exactly this scale, seed, and cut window.
func TestRunScenarioSRLGPreempts(t *testing.T) {
	cases := []struct {
		name     string
		sc       Scale
		seed     int64
		from, to int
	}{
		{"midrun", Medium(), 3, 12, 24},   // the middle third of 36 steps
		{"early-long", Small(), 7, 2, 11}, // step 2 to the end of 12
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && c.sc.Name != "small" {
				t.Skip("medium-scale run skipped in -short mode")
			}
			s := NewSetup(c.sc, WithLoad(2), WithSeed(c.seed))
			clean, err := s.RunPretium(nil)
			if err != nil {
				t.Fatal(err)
			}
			r, err := s.RunScenario(clean, Scenario{
				Name:           "srlg-" + c.name,
				Injector:       chaos.Outage{Edges: srlgGroup(s.Net), From: c.from, To: c.to},
				MaxWelfareLoss: 1.0,
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.Preempted == 0 {
				t.Fatal("severing a whole site stranded no guarantees — scenario too weak to test the refund rung")
			}
			if r.RefundTotal <= 0 {
				t.Errorf("preempted %d guarantees but refunded %v", r.Preempted, r.RefundTotal)
			}
			if got := r.Run.Report.RenegedBytes; got != 0 {
				t.Errorf("reneged %v bytes — shortfall escaped the repair ladder", got)
			}
			repair := r.Run.Controller.Health.EventsAt(core.ModuleRepair)
			if len(repair) == 0 {
				t.Fatal("no repair events recorded")
			}
			preemptEvents := 0
			for _, e := range repair {
				if e.Level == core.LevelRepairPreempt {
					preemptEvents++
				}
			}
			if preemptEvents == 0 {
				t.Errorf("refunds issued but no repair-preempt event in health: %s", r.Run.Controller.Health.Summary())
			}
		})
	}
}
