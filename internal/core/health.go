package core

import (
	"fmt"
	"strings"
)

// Level grades how far down the degradation ladder a control-loop module
// had to walk at one step. Levels are ordered by severity; the Health
// report tracks the worst level per step and counts per level.
type Level int

const (
	// LevelOK: the step's LP solved cleanly.
	LevelOK Level = iota
	// LevelRelaxed: guarantees were no longer jointly schedulable; the
	// LP re-solved with guarantee rows relaxed (reneges accounted at the
	// end). Pre-ladder behavior already included this rung.
	LevelRelaxed
	// LevelRetainedPrices: the Price Computer failed; the previous
	// window's prices were carried forward.
	LevelRetainedPrices
	// LevelRepairReroute: topology churn stranded admitted guarantees; a
	// repair solve re-routed the affected transfers around the outage
	// while pinning every unaffected allocation in place.
	LevelRepairReroute
	// LevelRepairReplan: pinned re-routing was infeasible; the whole live
	// set was jointly re-planned with relaxed routes (minimal-disruption
	// pinning abandoned, guarantees still met).
	LevelRepairReplan
	// LevelRepairPreempt: the surviving topology cannot carry every
	// remaining guarantee; the cheapest stranded guarantees were
	// preempted and explicitly refunded (price paid x undelivered
	// fraction) until the rest fit.
	LevelRepairPreempt
	// LevelCarry: every LP rung failed; the installed plan was carried and
	// only the transfers an outage strands were re-placed LP-free
	// (SolveGreedy, around the pinned rest). The one LP-free level.
	LevelCarry
	// LevelRepairSkipped: stranded guarantees were detected but no repair
	// solve could run (solver outage); shortfalls will surface as reneges
	// instead of refunds — recorded, never silent.
	LevelRepairSkipped
)

func (l Level) String() string {
	switch l {
	case LevelOK:
		return "ok"
	case LevelRelaxed:
		return "relaxed-guarantees"
	case LevelRetainedPrices:
		return "retained-prices"
	case LevelRepairReroute:
		return "repair-reroute"
	case LevelRepairReplan:
		return "repair-replan"
	case LevelRepairPreempt:
		return "repair-preempt"
	case LevelCarry:
		return "carry-plan"
	case LevelRepairSkipped:
		return "repair-skipped"
	}
	return "unknown"
}

// numLevels sizes the per-level counters.
const numLevels = int(LevelRepairSkipped) + 1

// Module names used in degradation events.
const (
	ModuleSAM    = "SAM"
	ModulePC     = "PC"
	ModuleRepair = "REPAIR"
)

// Event is one degradation: at Step, Module settled at Level after
// walking the ladder for the Reason chain (one fragment per failed rung).
type Event struct {
	Step   int
	Module string
	Level  Level
	Reason string
}

func (e Event) String() string {
	return fmt.Sprintf("t=%d %s %s: %s", e.Step, e.Module, e.Level, e.Reason)
}

// Health is the controller's degradation report: what the control loop
// had to give up, where, and why. A run with an empty report executed
// every step at full fidelity. The report is what turns "the run
// completed" into an auditable claim — operators can see exactly which
// steps rode the fallback and which guarantees were shed.
type Health struct {
	// Events lists degradations in step order, one per (module, step)
	// that ended above LevelOK.
	Events []Event
	// Counts[l] is the number of events at Level l.
	Counts [numLevels]int
	// Worst[t] is the worst level any module hit at step t.
	Worst []Level
}

func newHealth(horizon int) *Health {
	return &Health{Worst: make([]Level, horizon)}
}

// record appends one degradation event and updates the aggregates.
func (h *Health) record(step int, module string, lvl Level, reason string) {
	h.Events = append(h.Events, Event{Step: step, Module: module, Level: lvl, Reason: reason})
	h.Counts[lvl]++
	if step >= 0 && step < len(h.Worst) && lvl > h.Worst[step] {
		h.Worst[step] = lvl
	}
}

// Degraded reports whether any module degraded at any step.
func (h *Health) Degraded() bool { return len(h.Events) > 0 }

// EventsAt returns the events recorded for one module ("" = all).
func (h *Health) EventsAt(module string) []Event {
	if module == "" {
		return h.Events
	}
	var out []Event
	for _, e := range h.Events {
		if e.Module == module {
			out = append(out, e)
		}
	}
	return out
}

// Summary renders a one-line digest, e.g.
// "degraded 7/24 steps: relaxed-guarantees=1 carry-plan=6".
func (h *Health) Summary() string {
	if !h.Degraded() {
		return "healthy"
	}
	steps := 0
	for _, w := range h.Worst {
		if w > LevelOK {
			steps++
		}
	}
	var parts []string
	for l := LevelOK + 1; l < Level(numLevels); l++ {
		if h.Counts[l] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", l, h.Counts[l]))
		}
	}
	return fmt.Sprintf("degraded %d/%d steps: %s", steps, len(h.Worst), strings.Join(parts, " "))
}
