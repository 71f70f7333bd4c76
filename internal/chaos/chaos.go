// Package chaos provides deterministic fault injectors for the control
// loop's robustness harness. An Injector is consulted by core.Controller
// at two points of every timestep: before each LP solve (to force
// solver-level failures — outright errors or wall-clock timeouts — at
// chosen steps) and at the top of the step (to corrupt planning state:
// price corruption, and outages that cut, drain or flap link capacity).
//
// Everything is a pure function of the step index: the same injection
// schedule over the same request stream reproduces the same run bit for
// bit, so robustness tests can assert exact degradation ladders instead
// of probabilistic survival. This is chaos engineering in the
// Jepsen/deterministic-simulation tradition, not randomized monkeying.
package chaos

import (
	"fmt"
	"slices"

	"pretium/internal/graph"
	"pretium/internal/pricing"
)

// Module names the control-loop solve sites an Action can target,
// matching the Module strings in the controller's Health report.
const (
	ModuleSAM = "SAM"
	ModulePC  = "PC"
	// ModuleAny matches every module (SolverOutage with Module "" uses it
	// implicitly).
	ModuleAny = ""
)

// Action tells the control loop what to do with an impending LP solve.
type Action int

const (
	// Proceed: solve normally.
	Proceed Action = iota
	// Timeout: the solver is pathologically slow — each LP attempt runs
	// under a ~zero wall-clock budget and comes back lp.TimeLimit.
	Timeout
	// Fail: the solver is down — every LP attempt at this (module, step)
	// returns an error. LP-free rungs of the degradation ladder (greedy
	// fallback, plan carry) still run.
	Fail
)

func (a Action) String() string {
	switch a {
	case Proceed:
		return "proceed"
	case Fail:
		return "fail"
	case Timeout:
		return "timeout"
	}
	return "unknown"
}

// Injector is the hook the controller consults. Implementations must be
// deterministic functions of their arguments.
type Injector interface {
	// SolveAction is consulted immediately before module (ModuleSAM or
	// ModulePC) would solve an LP at step t.
	SolveAction(module string, step int) Action
	// BeforeStep runs at the top of step t, after any price recomputation
	// and before admission, and may mutate the planning state through its
	// cache-coherent mutators.
	BeforeStep(step int, st *pricing.State)
}

// SolverOutage forces solver failures or timeouts for one module (or all,
// with Module "") on every step in [From, To] (inclusive; To < From means
// never). Mode Proceed is treated as Fail so the zero value of Mode still
// injects something.
type SolverOutage struct {
	Module   string
	From, To int
	Mode     Action
}

// SolveAction implements Injector.
func (o SolverOutage) SolveAction(module string, step int) Action {
	if o.Module != ModuleAny && o.Module != module {
		return Proceed
	}
	if step < o.From || step > o.To {
		return Proceed
	}
	if o.Mode == Proceed {
		return Fail
	}
	return o.Mode
}

// BeforeStep implements Injector (no state mutation).
func (o SolverOutage) BeforeStep(int, *pricing.State) {}

// PriceCorruption multiplies every edge's base price at the current step
// by Factor on steps in [From, To] — modeling a Price Computer gone wrong
// or a poisoned price store. Factor 0 gives everything away free (an
// overselling stress: admission control admits everyone; the scheduler
// and realizer must still hold capacity). A huge Factor starves
// admission instead. Mutations go through SetBasePrice, so the quoting
// cache stays coherent.
type PriceCorruption struct {
	From, To int
	Factor   float64
}

// SolveAction implements Injector (solves proceed).
func (p PriceCorruption) SolveAction(string, int) Action { return Proceed }

// BeforeStep implements Injector.
func (p PriceCorruption) BeforeStep(step int, st *pricing.State) {
	if step < p.From || step > p.To {
		return
	}
	for e := 0; e < st.Net.NumEdges(); e++ {
		st.SetBasePrice(graph.EdgeID(e), step, st.BasePrice[e][step]*p.Factor)
	}
}

// Outage takes capacity out of a group of edges over one window — the one
// shape of topology churn. Every member edge loses Capacity*(1-Survive)
// on each step of the hold window [From, To]; a Ramp spreads the loss
// linearly over Ramp steps on either side (a maintenance drain); a Period
// makes the hold flap, down on even phases ((t-From)/Period) and whole on
// odd ones. One edge with no ramp is a link cut; several edges cut
// together are a shared-risk link group (one fiber conduit carrying
// several logical links, severed by a single backhoe).
//
// Until its announcement step an outage is invisible; from then on its
// whole profile is written into the overlay, so an unannounced cut
// strands traffic already committed to the edge while an announced one
// lets admission and SAM plan around the hole before it opens. Outages
// compose in a Plan, which sums them per cell; a lone Outage is a Plan of
// one.
type Outage struct {
	Edges    []graph.EdgeID
	From, To int
	// Survive is the capacity fraction left during the hold; 0 (the zero
	// value) is a full cut. Clamped to [0, 1], NaN counting as 0.
	Survive float64
	// Ramp is the number of steps spent ramping on each side; <= 0 means
	// the outage starts and ends abruptly.
	Ramp int
	// Period, when positive, is the length of one flap phase.
	Period int
	// Announce is the step the outage becomes visible to the planner. The
	// zero value and anything past the profile's start (From-Ramp) mean
	// "at the start"; negative values mean "known from step 0". A fault
	// announced only after it strikes is two inputs to the controller: the
	// steps before the announcement are extra core.Config.HighPriActual (a
	// loss the planner never hears of), the rest an Outage from the
	// announcement on.
	Announce int
}

// SolveAction implements Injector (solves proceed).
func (o Outage) SolveAction(string, int) Action { return Proceed }

// BeforeStep implements Injector.
func (o Outage) BeforeStep(step int, st *pricing.State) { Plan{o}.BeforeStep(step, st) }

// span returns the profile's first and last steps and the step the
// outage is announced at.
func (o Outage) span() (start, end, announce int) {
	ramp := max(o.Ramp, 0)
	start, end, announce = o.From-ramp, o.To+ramp, o.Announce
	if announce == 0 || announce > start {
		announce = start
	}
	return start, end, max(announce, 0)
}

// down returns the capacity the outage removes from edge e, of capacity
// cap, at step t.
func (o Outage) down(e graph.EdgeID, t int, cap float64) float64 {
	start, end, _ := o.span()
	if t < start || t > end || !slices.Contains(o.Edges, e) {
		return 0
	}
	depth, ramp := 1-clamp01(o.Survive), o.From-start
	switch {
	case t < o.From: // j = t-start+1 steps into the ramp-down
		return cap * (depth * float64(t-start+1) / float64(ramp+1))
	case t > o.To: // the ramp-up mirrors it
		return cap * (depth * float64(end-t+1) / float64(ramp+1))
	case o.Period > 0 && (t-o.From)/o.Period%2 == 1:
		return 0
	}
	return cap * depth
}

func clamp01(x float64) float64 {
	if x < 0 || x != x { // NaN guards as 0
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Plan composes injectors: the strongest solve action wins (Fail >
// Timeout > Proceed), and at each step every member runs in order —
// except outages, at any depth, which the Plan composes itself. On every
// cell an announced outage covers it writes the sum of all announced
// outages' contributions, added in Plan order: a member's share is fixed
// by its position, so an outage restores exactly what it removed whatever
// else touches the edge, and two contributions on one cell commute
// exactly. The overlay total may exceed the edge's capacity;
// pricing.State.Capacity saturates at zero.
type Plan []Injector

// SolveAction implements Injector.
func (p Plan) SolveAction(module string, step int) Action {
	worst := Proceed
	for _, in := range p {
		if a := in.SolveAction(module, step); a > worst {
			worst = a
		}
	}
	return worst
}

// BeforeStep implements Injector.
func (p Plan) BeforeStep(step int, st *pricing.State) {
	var live []Outage
	for _, in := range p.leaves(nil) {
		if o, ok := in.(Outage); !ok {
			in.BeforeStep(step, st)
		} else if _, _, ann := o.span(); ann <= step {
			live = append(live, o)
		}
	}
	for _, o := range live {
		start, end, _ := o.span()
		for _, e := range o.Edges {
			cap := st.Net.Edge(e).Capacity
			for t := max(start, 0); t <= end && t < st.Horizon; t++ {
				sum := 0.0
				for _, c := range live {
					sum += c.down(e, t, cap)
				}
				st.SetOutage(e, t, sum)
			}
		}
	}
}

// leaves appends p's members to dst depth-first, nested Plans flattened.
func (p Plan) leaves(dst []Injector) []Injector {
	for _, in := range p {
		if sub, ok := in.(Plan); ok {
			dst = sub.leaves(dst)
		} else {
			dst = append(dst, in)
		}
	}
	return dst
}

// CheckEdges reports an error when in, or any injector nested in a Plan,
// is nil or names an edge outside a network of numEdges edges, naming the
// offender's position. Knobs stay clamped at use; an edge cannot be, since
// the outage would index past the state, and a nil member would panic at
// the first step.
func CheckEdges(in Injector, numEdges int) error { return checkAt(in, numEdges, "") }

func checkAt(in Injector, numEdges int, at string) error {
	switch v := in.(type) {
	case Plan:
		for i, sub := range v {
			pos := fmt.Sprintf("%s[%d]", at, i)
			if sub == nil {
				return fmt.Errorf("chaos: Plan member %s is nil", pos)
			}
			if err := checkAt(sub, numEdges, pos); err != nil {
				return err
			}
		}
	case Outage:
		for _, e := range v.Edges {
			if e < 0 || int(e) >= numEdges {
				return fmt.Errorf("chaos: Outage%s names edge %d outside the network's %d edges", at, e, numEdges)
			}
		}
	}
	return nil
}
