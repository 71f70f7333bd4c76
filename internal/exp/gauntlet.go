package exp

import (
	"fmt"
	"math"

	"pretium/internal/chaos"
	"pretium/internal/core"
	"pretium/internal/graph"
	"pretium/internal/sim"
)

// Scenario is one named fault script replayed against a Pretium run:
// solver outages and timeouts, poisoned prices, flapping links, link cuts,
// maintenance drains and correlated (SRLG) failures, alone or composed.
// MaxWelfareLoss bounds the loss against the clean run as a fraction of
// its welfare magnitude: 1.0 means "may lose everything but not go
// meaningfully negative", lower is tighter, 0 disables the bound.
type Scenario struct {
	Name           string
	Injector       chaos.Injector
	MaxWelfareLoss float64
}

// ScenarioResult is one scenario's run plus the derived facts its
// contract was checked against.
type ScenarioResult struct {
	Run SchemeResult
	// WelfareLoss = (clean - run) / max(|clean|, 1).
	WelfareLoss float64
	// Preempted counts guarantees bought back; RefundTotal is the
	// currency returned for them.
	Preempted   int
	RefundTotal float64
}

// byteTol bounds float drift in the byte-conservation checks; centTol is
// the currency slack for refund accounting ("to the cent").
const (
	byteTol = 1e-3
	centTol = 0.005
)

// RunScenario replays one scenario and enforces the robustness contract
// against the clean run:
//
//   - the run completes the horizon;
//   - realized usage never exceeds nameplate capacity, nor the
//     *surviving* capacity of any link while it is cut, drained or
//     flapped;
//   - every refund record is self-consistent (amount = paid x
//     undelivered fraction) and the records sum to the outcome's
//     refunded total — conservation to the cent;
//   - welfare loss stays within the scenario's bound;
//   - unless the injector stops SAM at some step, no guarantee is
//     silently violated: reneged bytes stay at zero.
//
// A breach is returned as an error; degradation alone is the expected
// outcome and shows up in the controller's Health report.
func (s *Setup) RunScenario(clean SchemeResult, scen Scenario) (ScenarioResult, error) {
	res, err := s.RunPretium(func(c *core.Config) { c.Chaos = scen.Injector })
	if err != nil {
		return ScenarioResult{}, fmt.Errorf("%s: run aborted: %w", scen.Name, err)
	}
	r := ScenarioResult{Run: res}
	denom := math.Max(math.Abs(clean.Report.Welfare), 1)
	r.WelfareLoss = (clean.Report.Welfare - res.Report.Welfare) / denom

	if err := sim.CheckCapacities(s.Net, res.Outcome.Usage, 1e-6); err != nil {
		return r, fmt.Errorf("%s: nameplate capacity violated: %w", scen.Name, err)
	}
	// Surviving capacity per (edge, step): nameplate minus the injected
	// outage. The overlay is deterministic in the step index, so the
	// post-run state still reports the outage each step ran under.
	st := res.Controller.State()
	surviving := make([][]float64, s.Net.NumEdges())
	for _, e := range s.Net.Edges() {
		row := make([]float64, s.Scale.Steps)
		for t := range row {
			row[t] = math.Max(e.Capacity-st.OutageAt(e.ID, t), 0)
		}
		surviving[e.ID] = row
	}
	if err := sim.CheckCapacitiesAgainst(res.Outcome.Usage, surviving, 1e-6); err != nil {
		return r, fmt.Errorf("%s: %w", scen.Name, err)
	}

	// Refund conservation: each record certifies itself, and the records
	// must add up to exactly what the outcome says was returned.
	for _, ref := range res.Controller.Refunds {
		want := 0.0
		if ref.Bought > 0 {
			want = ref.Paid * ref.Bytes / ref.Bought
		}
		if math.Abs(ref.Amount-want) > centTol || ref.Bytes < 0 || ref.Bytes > ref.Bought+byteTol {
			return r, fmt.Errorf("%s: refund for req %d inconsistent: %+v", scen.Name, ref.Req, ref)
		}
		r.RefundTotal += ref.Amount
	}
	r.Preempted = len(res.Controller.Refunds)
	if math.Abs(r.RefundTotal-res.Report.RefundedTotal) > centTol {
		return r, fmt.Errorf("%s: refund records sum to %.4f, outcome refunded %.4f",
			scen.Name, r.RefundTotal, res.Report.RefundedTotal)
	}

	if scen.MaxWelfareLoss > 0 && r.WelfareLoss > scen.MaxWelfareLoss {
		return r, fmt.Errorf("%s: welfare loss %.3f exceeds bound %.3f (health: %s)",
			scen.Name, r.WelfareLoss, scen.MaxWelfareLoss, res.Controller.Health.Summary())
	}
	if !stopsSAM(scen.Injector, s.Scale.Steps) && res.Report.RenegedBytes > byteTol {
		return r, fmt.Errorf("%s: %.4f bytes reneged without refund (health: %s)",
			scen.Name, res.Report.RenegedBytes, res.Controller.Health.Summary())
	}
	return r, nil
}

// stopsSAM reports whether the injector fails or times out the SAM solve
// at any step of the horizon. With SAM down the repair ladder bottoms out
// at repair-skipped and guarantees renege honestly; with SAM healthy every
// admitted byte must be delivered or refunded.
func stopsSAM(inj chaos.Injector, steps int) bool {
	for t := 0; t < steps; t++ {
		if inj.SolveAction(chaos.ModuleSAM, t) != chaos.Proceed {
			return true
		}
	}
	return false
}

// fattestEdge picks the largest-capacity link — a fat inter-region pipe,
// the most disruptive thing to flap.
func fattestEdge(net *graph.Network) graph.EdgeID {
	best := graph.EdgeID(0)
	bestCap := -1.0
	for _, e := range net.Edges() {
		if e.Capacity > bestCap {
			bestCap = e.Capacity
			best = e.ID
		}
	}
	return best
}

// srlgGroup is the shared-risk group used by the correlated-failure
// scenarios: every edge leaving the fattest link's tail node, the closest
// thing the generated WAN has to "one conduit cut severs the site".
func srlgGroup(net *graph.Network) []graph.EdgeID {
	return net.Out(net.Edge(fattestEdge(net)).From)
}

// busiestEdge picks the cut target for the single-link churn scenarios:
// the edge with the most demand-weighted appearances in request route
// sets whose windows overlap [from, to]. The fattest link can sit idle at
// small scales; a cut that strands nobody exercises nothing, so the
// gauntlet aims where the traffic actually is.
func busiestEdge(s *Setup, from, to int) graph.EdgeID {
	score := make([]float64, s.Net.NumEdges())
	for _, r := range s.Requests {
		if r.End < from || r.Start > to || len(r.Routes) == 0 {
			continue
		}
		w := r.Demand / float64(len(r.Routes))
		for _, route := range r.Routes {
			for _, e := range route {
				score[e] += w
			}
		}
	}
	best := graph.EdgeID(0)
	for e := range score {
		if score[e] > score[best] {
			best = graph.EdgeID(e)
		}
	}
	return best
}

// DefaultScenarios is the standing robustness gauntlet. The first seven
// are faults in the control loop: solver outages and timeouts (the ladder
// must reach greedy and come back), Price Computer outages (prices must
// be retained, not corrupted), poisoned prices in both directions, and a
// flapping fat link. Their welfare bounds are deliberately loose — they
// catch collapse (capacity chaos or admission meltdown), not optimality
// drift. The last seven churn the topology: an unannounced full cut of
// the busiest link, an announced partial cut, a ramped maintenance drain,
// an SRLG failure severing every path out of a site (forcing the
// preempt-and-refund rung), the flap/drain composition on one edge, a
// storm of all three, and churn while the repair solver itself is dead.
func DefaultScenarios(s *Setup) []Scenario {
	steps := s.Scale.Steps
	mid := steps / 3
	fattest := []graph.EdgeID{fattestEdge(s.Net)}
	busiest := []graph.EdgeID{busiestEdge(s, mid, 2*mid)}
	srlg := srlgGroup(s.Net)
	ramp := max(s.Scale.StepsPerDay/4, 1)
	return []Scenario{
		// Total outage: every step rides the fallback, which still owes
		// every sold guarantee — including ones only carriable over
		// priced pipes — so the bound is the loosest of the gauntlet.
		{"sam-outage-all", chaos.SolverOutage{Module: chaos.ModuleSAM, From: 0, To: steps - 1, Mode: chaos.Fail}, 2.5},
		{"sam-timeout-mid", chaos.SolverOutage{Module: chaos.ModuleSAM, From: mid, To: 2 * mid, Mode: chaos.Timeout}, 1.5},
		{"pc-outage-all", chaos.SolverOutage{Module: chaos.ModulePC, From: 0, To: steps - 1, Mode: chaos.Fail}, 1.0},
		{"price-spike-10x", chaos.PriceCorruption{From: mid, To: 2 * mid, Factor: 10}, 1.5},
		{"price-zero", chaos.PriceCorruption{From: mid, To: 2 * mid, Factor: 0}, 3},
		{"fat-link-flap", chaos.Outage{Edges: fattest, From: 0, To: steps - 1, Survive: 0.5, Period: 1}, 1.5},
		{"perfect-storm", chaos.Plan{
			chaos.SolverOutage{Module: chaos.ModuleSAM, From: mid, To: 2 * mid, Mode: chaos.Fail},
			chaos.SolverOutage{Module: chaos.ModulePC, From: 0, To: steps - 1, Mode: chaos.Fail},
			chaos.Outage{Edges: fattest, From: mid, To: 2 * mid, Survive: 0.5, Period: 2},
		}, 3},
		{"fat-cut", chaos.Outage{Edges: busiest, From: mid, To: 2 * mid}, 1.0},
		{"partial-cut-announced", chaos.Outage{Edges: busiest, From: mid, To: 2 * mid, Survive: 0.5, Announce: -1}, 1.0},
		{"maintenance-drain", chaos.Outage{Edges: busiest, From: mid, To: 2 * mid, Ramp: ramp, Announce: -1}, 1.0},
		{"srlg-site-cut", chaos.Outage{Edges: srlg, From: mid, To: 2 * mid}, 1.0},
		{"flap-drain-compose", chaos.Plan{
			chaos.Outage{Edges: busiest, From: mid, To: 2 * mid, Survive: 0.5, Period: 2},
			chaos.Outage{Edges: busiest, From: mid, To: 2 * mid, Survive: 0.5, Ramp: ramp, Announce: -1},
		}, 1.0},
		{"churn-storm", chaos.Plan{
			chaos.Outage{Edges: busiest, From: mid, To: 2 * mid},
			chaos.Outage{Edges: srlg, From: mid + 1, To: 2 * mid},
			chaos.Outage{Edges: busiest, From: 2*mid + 1, To: steps - 1, Ramp: ramp, Announce: -1},
		}, 1.0},
		// The no-repair-possible worst case: the solver dies at the same
		// instant the topology churns, so plans laid while it was healthy
		// are stranded and every repair solve fails too. The ladder must
		// record repair-skipped and renege *visibly* — conservation and
		// capacity invariants still hold, silent violation never does.
		{"cut-with-dead-solver", chaos.Plan{
			chaos.Outage{Edges: srlg, From: mid, To: 2 * mid},
			chaos.SolverOutage{Module: chaos.ModuleSAM, From: mid, To: steps - 1, Mode: chaos.Fail},
		}, 1.0},
	}
}

// Gauntlet runs Pretium clean at load 2, then replays every default
// scenario against that reference and reports, per scenario: relative
// welfare loss, guarantees preempted, currency refunded, bytes reneged
// (nonzero only where SAM is stopped), degraded steps, degradation
// events, and the worst ladder level hit (as its numeric severity). A
// scenario that breaches its contract aborts the gauntlet.
func Gauntlet(sc Scale, seed int64) ([]Row, error) {
	s := NewSetup(sc, WithLoad(2), WithSeed(seed))
	clean, err := s.RunPretium(nil)
	if err != nil {
		return nil, fmt.Errorf("clean run: %w", err)
	}
	var rows []Row
	for _, scen := range DefaultScenarios(s) {
		r, err := s.RunScenario(clean, scen)
		if err != nil {
			return nil, err
		}
		health := r.Run.Controller.Health
		degraded, worst := 0, core.LevelOK
		for _, w := range health.Worst {
			if w > core.LevelOK {
				degraded++
			}
			worst = max(worst, w)
		}
		rows = append(rows, Row{Label: scen.Name, Columns: []Col{
			{Name: "welfLoss", Value: r.WelfareLoss},
			{Name: "preempted", Value: float64(r.Preempted)},
			{Name: "refunded", Value: r.RefundTotal},
			{Name: "reneged", Value: r.Run.Report.RenegedBytes},
			{Name: "degradedSteps", Value: float64(degraded)},
			{Name: "events", Value: float64(len(health.Events))},
			{Name: "worstLevel", Value: float64(worst)},
		}})
	}
	return rows, nil
}
