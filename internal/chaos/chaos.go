// Package chaos provides deterministic fault injectors for the control
// loop's robustness harness. An Injector is consulted by core.Controller
// at two points of every timestep: before each LP solve (to force
// solver-level failures — outright errors or wall-clock timeouts — at
// chosen steps) and at the top of the step (to corrupt planning state:
// price corruption, capacity flapping).
//
// Everything is a pure function of the step index: the same injection
// schedule over the same request stream reproduces the same run bit for
// bit, so robustness tests can assert exact degradation ladders instead
// of probabilistic survival. This is chaos engineering in the
// Jepsen/deterministic-simulation tradition, not randomized monkeying.
package chaos

import (
	"fmt"

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

// CapacityFlap alternately removes and restores a fraction of one edge's
// capacity with a fixed period: steps in [From, To] whose phase
// ((t-From)/Period) is even are "down". At each step it rewrites the
// edge's outage cells for the whole remaining flap window, so the planner
// keeps re-planning around a future that keeps changing — the
// flapping-link nightmare §4.4 gestures at. The flap owns a private
// overlay source, so up-phases restore the edge's capacity exactly and
// flaps compose with drains, cuts, and the high-pri set-aside on the same
// edge without clobbering them.
type CapacityFlap struct {
	Edge     graph.EdgeID
	From, To int
	Period   int
	// Frac of the edge's physical capacity removed during down phases.
	Frac float64
}

func (f CapacityFlap) source() string {
	return fmt.Sprintf("flap:%d:%d-%d", f.Edge, f.From, f.To)
}

// SolveAction implements Injector (solves proceed).
func (f CapacityFlap) SolveAction(string, int) Action { return Proceed }

// BeforeStep implements Injector.
func (f CapacityFlap) BeforeStep(step int, st *pricing.State) {
	if step < f.From || step > f.To {
		return
	}
	period := f.Period
	if period <= 0 {
		period = 1
	}
	cap := st.Net.Edge(f.Edge).Capacity
	src := f.source()
	for t := step; t <= f.To && t < st.Horizon; t++ {
		down := ((t-f.From)/period)%2 == 0
		if down {
			st.SetOutage(src, f.Edge, t, cap*clamp01(f.Frac))
		} else {
			st.SetOutage(src, f.Edge, t, 0)
		}
	}
}

// LinkCut takes one edge (mostly) out of service for a window: physical
// capacity drops to Capacity*Survive on every step in [From, To]. The
// default is an unannounced cut — the planner learns about it at step
// From, when traffic already committed to the edge strands. Setting
// Announce < From models advance warning: the outage is written into the
// overlay that early, so admission and SAM plan around the hole before it
// opens (the difference between a fiber cut and a scheduled repair).
type LinkCut struct {
	Edge     graph.EdgeID
	From, To int
	// Survive is the fraction of capacity left during the cut; 0 (the
	// zero value) is a full cut. Clamped to [0, 1].
	Survive float64
	// Announce is the step the cut becomes visible to the planner. The
	// zero value and anything past From mean "at onset" (From); negative
	// values mean "known from the start" (step 0). A fault announced only
	// after it strikes is two inputs to the controller: the steps before
	// the announcement are extra core.Config.HighPriActual (a loss the
	// planner never hears of), the rest a LinkCut from the announcement on.
	Announce int
}

func (c LinkCut) source() string {
	return fmt.Sprintf("linkcut:%d:%d-%d", c.Edge, c.From, c.To)
}

// SolveAction implements Injector (solves proceed).
func (c LinkCut) SolveAction(string, int) Action { return Proceed }

// BeforeStep implements Injector.
func (c LinkCut) BeforeStep(step int, st *pricing.State) {
	ann := c.Announce
	if ann == 0 || ann > c.From {
		ann = c.From
	}
	if ann < 0 {
		ann = 0
	}
	if step < ann || step > c.To {
		return
	}
	down := st.Net.Edge(c.Edge).Capacity * (1 - clamp01(c.Survive))
	src := c.source()
	for t := c.From; t <= c.To && t < st.Horizon; t++ {
		if t < 0 {
			continue
		}
		st.SetOutage(src, c.Edge, t, down)
	}
}

// MaintenanceDrain is an announced, ramped capacity reduction: the edge
// ramps down over the Ramp steps before From, holds at Capacity*Survive
// during [From, To], and ramps back up over the Ramp steps after To. The
// whole future profile is written at the announcement step (default: the
// start of the ramp-down), so SAM sees the drain coming and can route
// long transfers around it — the cooperative counterpart to LinkCut.
type MaintenanceDrain struct {
	Edge     graph.EdgeID
	From, To int
	// Ramp is the number of steps spent ramping on each side; <= 0 means
	// the drain starts and ends abruptly.
	Ramp int
	// Survive is the capacity fraction retained during the hold window.
	Survive float64
	// Announce is the step the drain is announced. The zero value and
	// anything past the ramp start mean "at ramp start"; negative values
	// mean "known from the start" (step 0).
	Announce int
}

func (d MaintenanceDrain) source() string {
	return fmt.Sprintf("drain:%d:%d-%d", d.Edge, d.From, d.To)
}

// SolveAction implements Injector (solves proceed).
func (d MaintenanceDrain) SolveAction(string, int) Action { return Proceed }

// frac returns the fraction of capacity removed at step t.
func (d MaintenanceDrain) frac(t int) float64 {
	depth := 1 - clamp01(d.Survive)
	ramp := d.Ramp
	if ramp < 0 {
		ramp = 0
	}
	switch {
	case t >= d.From && t <= d.To:
		return depth
	case t >= d.From-ramp && t < d.From:
		// j steps into the ramp-down, j in [1, ramp].
		j := t - (d.From - ramp) + 1
		return depth * float64(j) / float64(ramp+1)
	case t > d.To && t <= d.To+ramp:
		j := t - d.To
		return depth * float64(ramp+1-j) / float64(ramp+1)
	}
	return 0
}

// BeforeStep implements Injector.
func (d MaintenanceDrain) BeforeStep(step int, st *pricing.State) {
	ramp := d.Ramp
	if ramp < 0 {
		ramp = 0
	}
	start, end := d.From-ramp, d.To+ramp
	ann := d.Announce
	if ann == 0 || ann > start {
		ann = start
	}
	if ann < 0 {
		ann = 0
	}
	if step < ann || step > end {
		return
	}
	cap := st.Net.Edge(d.Edge).Capacity
	src := d.source()
	for t := start; t <= end && t < st.Horizon; t++ {
		if t < 0 {
			continue
		}
		st.SetOutage(src, d.Edge, t, cap*d.frac(t))
	}
}

// CorrelatedFailure cuts a group of edges atomically over one window — a
// shared-risk link group: one fiber conduit carrying several logical
// links, severed by a single backhoe. All member edges drop to
// Capacity*Survive together at step From (unannounced, like LinkCut),
// which is the scenario that strands guarantees no single-link planner
// anticipates.
type CorrelatedFailure struct {
	Edges    []graph.EdgeID
	From, To int
	// Survive is the capacity fraction left on every member edge.
	Survive float64
}

func (c CorrelatedFailure) source() string {
	key := fmt.Sprintf("srlg:%d-%d", c.From, c.To)
	for _, e := range c.Edges {
		key += fmt.Sprintf(":%d", e)
	}
	return key
}

// SolveAction implements Injector (solves proceed).
func (c CorrelatedFailure) SolveAction(string, int) Action { return Proceed }

// BeforeStep implements Injector.
func (c CorrelatedFailure) BeforeStep(step int, st *pricing.State) {
	if step < c.From || step > c.To {
		return
	}
	src := c.source()
	surv := clamp01(c.Survive)
	for _, e := range c.Edges {
		down := st.Net.Edge(e).Capacity * (1 - surv)
		for t := c.From; t <= c.To && t < st.Horizon; t++ {
			if t < 0 {
				continue
			}
			st.SetOutage(src, e, t, down)
		}
	}
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
// Timeout > Proceed) and BeforeStep mutations apply in order.
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
	for _, in := range p {
		in.BeforeStep(step, st)
	}
}

// CheckEdges reports an error when in, or any injector nested in a Plan,
// names an edge outside a network of numEdges edges. Knobs stay clamped at
// use; an edge cannot be, since the injector would index past the state.
func CheckEdges(in Injector, numEdges int) error {
	var edges []graph.EdgeID
	switch v := in.(type) {
	case Plan:
		for _, sub := range v {
			if err := CheckEdges(sub, numEdges); err != nil {
				return err
			}
		}
	case LinkCut:
		edges = []graph.EdgeID{v.Edge}
	case MaintenanceDrain:
		edges = []graph.EdgeID{v.Edge}
	case CapacityFlap:
		edges = []graph.EdgeID{v.Edge}
	case CorrelatedFailure:
		edges = v.Edges
	}
	for _, e := range edges {
		if e < 0 || int(e) >= numEdges {
			return fmt.Errorf("chaos: %T names edge %d outside the network's %d edges", in, e, numEdges)
		}
	}
	return nil
}
