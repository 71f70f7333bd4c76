package core

import (
	"errors"
	"sort"
	"strings"

	"pretium/internal/chaos"
	"pretium/internal/graph"
	"pretium/internal/lp"
	"pretium/internal/obs"
	"pretium/internal/sched"
)

// errInjectedOutage is what a chaos-killed SAM-site solve reports.
var errInjectedOutage = errors.New("injected solver outage")

// repairTol is the slack below which a planned overload is float dust
// rather than a stranded byte.
const repairTol = 1e-6

// Refund is one guarantee bought back by the repair ladder: the customer
// had Bought bytes admitted for Paid, Bytes of them were undelivered at
// preemption, and Amount = Paid * Bytes / Bought is returned. The record
// carries its own inputs so conservation is checkable per refund, not
// just in aggregate.
type Refund struct {
	Step   int
	Req    int
	Bytes  float64
	Bought float64
	Paid   float64
	Amount float64
}

// repairGuarantees runs after chaos mutates the planning state at step t:
// if the surviving topology no longer carries the forward plans of
// admitted transfers, it walks the repair ladder — (1) re-route the
// affected transfers around the outage with every unaffected allocation
// pinned, (2) jointly re-plan the whole live set, (3) preempt the
// cheapest stranded guarantees with explicit refunds until the rest fit.
// Every rung lands in Health and the event stream; a silent guarantee
// violation is never an outcome.
func (c *Controller) repairGuarantees(t int) {
	v := c.state.OutageVersion()
	if v == c.churnSeen {
		return
	}
	c.churnSeen = v

	live, horizon := c.liveSet(t)
	affected, pinned := c.strandedSplit(t, horizon, live)
	if len(affected) == 0 {
		return
	}
	guarantees, strandedBytes := 0, 0.0
	for _, a := range affected {
		strandedBytes += a.guaranteeLeft()
		if a.guaranteeLeft() > repairTol {
			guarantees++
		}
	}
	c.obs.repairDetected(guarantees)

	var reasons []string
	var victims []*admState
	solve := func(ins *sched.Instance) (*sched.Result, error) { return c.repairSolve(t, ins) }
	res, states, level, err := c.placeStranded(t, horizon, live, affected, pinned, solve, &reasons)
	if err == nil {
		c.installPlan(t, ModuleRepair, t, states, res)
	} else if errIsInfeasible(err) {
		// Rung 3: the surviving topology cannot carry every guarantee (or
		// pinned routing hid the capacity that could). Preempt stranded
		// guarantees cheapest-first — affected transfers before pinned
		// ones, ascending value proxy — refunding each, until the rest fit.
		res, survivors, dropped, err := c.preemptUntilFit(t, horizon, live, preemptionOrder(affected, pinned))
		switch {
		case err == nil:
			c.installPlan(t, ModuleRepair, t, survivors, res)
			level = LevelRepairPreempt
			victims = dropped
		case !errIsInfeasible(err):
			reasons = append(reasons, "preempt: "+err.Error()) // solver trouble, not structural infeasibility
		}
	}

	// Close the repair: the settled level and reason go to Health, then
	// the one repair event — the affected transfers, the stranded
	// guarantees and their bytes, and the preempted victims with their
	// refund sum.
	refunded := 0.0
	for _, v := range victims {
		refunded += v.refund
	}
	c.degrade(t, ModuleRepair, level, strings.Join(reasons, "; "))
	c.cfg.Obs.Emit(t, ModuleRepair, "repair",
		obs.I("affected", len(affected)), obs.I("stranded", guarantees),
		obs.F("stranded_bytes", strandedBytes), obs.I("preempted", len(victims)),
		obs.S("level", level.String()), obs.F("refund", refunded))
}

// strandedSplit splits the live set at step t by the plan now installed.
// That plan is a feasibility witness: where it still fits the surviving
// capacity, every remaining guarantee is still jointly schedulable. The
// affected transfers have a forward allocation riding a cell whose planned
// load exceeds that capacity; every other plan provably still fits and is
// pinned. affected is empty when nothing is stranded.
func (c *Controller) strandedSplit(t, horizon int, live []*admState) (affected, pinned []*admState) {
	ne := c.net.NumEdges()
	planned := make([][]float64, ne)
	for e := range planned {
		planned[e] = make([]float64, horizon)
	}
	for _, a := range live {
		for _, al := range a.plan {
			if al.Time < t || al.Time >= horizon {
				continue
			}
			for _, e := range a.adm.Request.Routes[al.RouteIdx] {
				planned[e][al.Time] += al.Bytes
			}
		}
	}
	over := make([][]bool, ne)
	for e := range over {
		over[e] = make([]bool, horizon)
		for tt := t; tt < horizon; tt++ {
			over[e][tt] = planned[e][tt] > c.state.Capacity(graph.EdgeID(e), tt)+repairTol
		}
	}
	for _, a := range live {
		if a.ridesAny(over, t, horizon) {
			affected = append(affected, a)
		} else {
			pinned = append(pinned, a)
		}
	}
	return affected, pinned
}

// ridesAny reports whether a forward allocation of a's plan in [t,
// horizon) crosses a marked (edge, step) cell.
func (a *admState) ridesAny(cells [][]bool, t, horizon int) bool {
	for _, al := range a.plan {
		if al.Time < t || al.Time >= horizon {
			continue
		}
		for _, e := range a.adm.Request.Routes[al.RouteIdx] {
			if cells[e][al.Time] {
				return true
			}
		}
	}
	return false
}

// placeStranded walks the two placement rungs both repair sites share,
// with solve posing each instance: (1) re-place only the affected
// transfers, routing around every pinned plan without moving it; (2)
// failing that, re-plan the whole live set jointly. Repair solves with the
// LP, the SAM ladder's carry rung with SolveGreedy. It returns the first
// plan that solves, the states it covers and its level; when both rungs
// fail, the whole-set attempt, the live set and the error that stopped it,
// at LevelRepairSkipped. Each failed rung appends its reason.
func (c *Controller) placeStranded(t, horizon int, live, affected, pinned []*admState,
	solve func(*sched.Instance) (*sched.Result, error), reasons *[]string) (*sched.Result, []*admState, Level, error) {
	res, err := solve(c.samInstance(t, horizon, affected, pinned))
	if err == nil {
		return res, affected, LevelRepairReroute, nil
	}
	*reasons = append(*reasons, "reroute: "+err.Error())
	if res, err = solve(c.samInstance(t, horizon, live, nil)); err == nil {
		return res, live, LevelRepairReplan, nil
	}
	*reasons = append(*reasons, "replan: "+err.Error())
	return res, live, LevelRepairSkipped, err
}

// preemptUntilFit drops candidates from the live set one at a time, in
// order, and re-solves the rest after each drop until they fit. Side
// effects wait for that plan: only then are the dropped candidates
// preempted and refunded, so no refund is issued without a plan that
// fits. It returns the plan, the surviving states and the victims; or,
// with nothing preempted, the solver error that stopped the walk, or
// lp.ErrInfeasible once the candidates run out.
func (c *Controller) preemptUntilFit(t, horizon int, live, candidates []*admState) (*sched.Result, []*admState, []*admState, error) {
	working := live
	for i, v := range candidates {
		keep := working[:0:0]
		for _, a := range working {
			if a != v {
				keep = append(keep, a)
			}
		}
		working = keep
		res, err := &sched.Result{}, error(nil) // nothing left to schedule fits
		if len(working) > 0 {
			res, err = c.repairSolve(t, c.samInstance(t, horizon, working, nil))
		}
		if err == nil {
			victims := candidates[:i+1]
			for _, a := range victims {
				c.preempt(t, a)
			}
			return res, working, victims, nil
		}
		if !errIsInfeasible(err) {
			return nil, nil, nil, err
		}
	}
	return nil, nil, nil, lp.ErrInfeasible
}

// errIsInfeasible reports whether a repair solve failed because the
// guarantees are structurally unschedulable (the case preemption can
// fix), as opposed to solver trouble (which it cannot).
func errIsInfeasible(err error) bool {
	return errors.Is(err, lp.ErrInfeasible)
}

// preemptionOrder ranks preemption candidates: guarantee-holding affected
// transfers first, then pinned ones, each group cheapest value proxy
// first (ties broken by request index for determinism).
func preemptionOrder(affected, pinned []*admState) []*admState {
	rank := func(states []*admState) []*admState {
		var out []*admState
		for _, a := range states {
			if a.guaranteeLeft() > repairTol {
				out = append(out, a)
			}
		}
		sort.SliceStable(out, func(i, j int) bool {
			if out[i].adm.Lambda != out[j].adm.Lambda {
				return out[i].adm.Lambda < out[j].adm.Lambda
			}
			return out[i].reqIdx < out[j].reqIdx
		})
		return out
	}
	return append(rank(affected), rank(pinned)...)
}

// repairSolve runs one repair LP at step t over an instance samInstance
// posed. It rides the SAM site's model path — a fresh, size-selected
// ins.Build() — and the configured chaos injector is consulted like any
// other SAM-site solve: a dead solver kills repair too, which is exactly
// the worst case the ladder's skipped level records.
func (c *Controller) repairSolve(t int, ins *sched.Instance) (*sched.Result, error) {
	act := c.chaosAction(chaos.ModuleSAM, t)
	if act == chaos.Fail {
		return nil, errInjectedOutage
	}
	c.obs.repairSolve()
	built, err := ins.Build()
	if err != nil {
		return nil, err
	}
	return solveBuilt(built, act, lp.Options{Stats: &c.samStats})
}

// preempt buys back one guarantee: the transfer stops here, and the
// customer is refunded their payment times the undelivered fraction.
func (c *Controller) preempt(t int, a *admState) {
	a.preempted = true
	a.plan = a.plan[:0]
	bytes := a.adm.Bought - a.delivered
	if bytes < 0 {
		bytes = 0
	}
	amount := 0.0
	if a.adm.Bought > 0 {
		amount = a.adm.Payment * bytes / a.adm.Bought
	}
	a.refund = amount
	c.Refunds = append(c.Refunds, Refund{
		Step: t, Req: a.reqIdx, Bytes: bytes,
		Bought: a.adm.Bought, Paid: a.adm.Payment, Amount: amount,
	})
	c.obs.refund()
	c.cfg.Obs.Emit(t, ModuleRepair, "refund",
		obs.I("req", a.reqIdx), obs.F("bytes", bytes), obs.F("amount", amount))
}
