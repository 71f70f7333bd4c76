package core

import (
	"errors"
	"fmt"
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
	if len(live) == 0 {
		return
	}

	// Forward planned load per (edge, step). The current plan is a
	// feasibility witness: if it still fits the surviving capacity, every
	// remaining guarantee is still jointly schedulable and there is
	// nothing to repair.
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
	stranded := false
	for e := range over {
		over[e] = make([]bool, horizon)
		for tt := t; tt < horizon; tt++ {
			if planned[e][tt] > c.state.Capacity(graph.EdgeID(e), tt)+repairTol {
				over[e][tt] = true
				stranded = true
			}
		}
	}
	if !stranded {
		return
	}

	// Affected transfers: any forward allocation riding an overloaded
	// cell. Everyone else's plan provably still fits and is pinned.
	affected := make([]bool, len(live))
	var affectedStates, pinnedStates []*admState
	guarantees := 0
	for i, a := range live {
		for _, al := range a.plan {
			if al.Time < t || al.Time >= horizon || affected[i] {
				continue
			}
			for _, e := range a.adm.Request.Routes[al.RouteIdx] {
				if over[e][al.Time] {
					affected[i] = true
					break
				}
			}
		}
		if affected[i] {
			affectedStates = append(affectedStates, a)
			if a.guaranteeLeft() > repairTol {
				guarantees++
			}
		} else {
			pinnedStates = append(pinnedStates, a)
		}
	}
	c.obs.repairDetected(guarantees)

	var reasons []string
	fail := func(rung string, err error) { reasons = append(reasons, rung+": "+err.Error()) }
	level := LevelRepairSkipped
	var victims []*admState

	// Rung 1: minimal disruption — re-route only the affected transfers,
	// with every unaffected allocation pinned in place.
	res, err := c.repairSolve(t, horizon, affectedStates, pinnedStates)
	if err == nil {
		c.installPlan(t, ModuleRepair, t, affectedStates, res)
		level = LevelRepairReroute
	} else {
		fail("reroute", err)
		// Rung 2: abandon pinning; re-plan the whole live set jointly
		// with relaxed routes.
		res, err = c.repairSolve(t, horizon, live, nil)
		if err == nil {
			c.installPlan(t, ModuleRepair, t, live, res)
			level = LevelRepairReplan
		} else {
			fail("replan", err)
		}
	}

	// Rung 3: the surviving topology cannot carry every guarantee (or
	// pinned routing hid the capacity that could). Preempt stranded
	// guarantees cheapest-first — affected transfers before pinned ones,
	// ascending value proxy — refunding each, until the rest fit.
	if level == LevelRepairSkipped && errIsInfeasible(err) {
		res, survivors, dropped, err := c.preemptUntilFit(t, horizon, live, preemptionOrder(affectedStates, pinnedStates))
		switch {
		case err == nil:
			c.installPlan(t, ModuleRepair, t, survivors, res)
			level = LevelRepairPreempt
			victims = dropped
		case !errIsInfeasible(err):
			fail("preempt", err) // solver trouble, not structural infeasibility
		}
	}

	strandedBytes := 0.0
	for _, a := range affectedStates {
		strandedBytes += a.guaranteeLeft()
	}
	c.reportRepair(t, level, strings.Join(reasons, "; "), len(affectedStates), guarantees, strandedBytes, victims)
}

// reportRepair closes one repair at step t, from either site: it records
// the settled level and reason in Health, then emits the one repair event
// — the affected transfers, the stranded guarantees and their bytes, and
// the preempted victims with their refund sum.
func (c *Controller) reportRepair(t int, level Level, reason string, affected, stranded int, strandedBytes float64, victims []*admState) {
	refunded := 0.0
	for _, v := range victims {
		refunded += v.refund
	}
	c.degrade(t, ModuleRepair, level, reason)
	c.cfg.Obs.Emit(t, ModuleRepair, "repair",
		obs.I("affected", affected), obs.I("stranded", stranded),
		obs.F("stranded_bytes", strandedBytes), obs.I("preempted", len(victims)),
		obs.S("level", level.String()), obs.F("refund", refunded))
}

// preemptRelaxed handles guarantee shortfalls that surface inside the SAM
// ladder while an injected outage is active. Admission quotes per-cell
// room, not joint schedulability, so new transfers sold during an outage
// can overcommit the surviving topology — SAM then settles at
// relaxed-guarantees and would renege the shortfall with no refund. Under
// churn that is a silent violation, so this pass extends the repair
// ladder into the SAM site: find the guarantees the relaxed solution
// shorted, preempt them cheapest-first, and re-solve strictly. On solver
// trouble nothing is preempted and the caller keeps the relaxed plan
// (honest, accounted reneges). Returns the strict result and surviving
// live set, or (nil, nil) to keep the relaxed outcome.
func (c *Controller) preemptRelaxed(t, horizon int, live []*admState, relaxed *sched.Result) (*sched.Result, []*admState) {
	alloc := make([]float64, len(live))
	for _, al := range relaxed.Allocs {
		alloc[al.DemandIdx] += al.Bytes
	}
	var shorted []*admState
	strandedBytes := 0.0
	for i, a := range live {
		if a.guaranteeLeft() > alloc[i]+repairTol {
			shorted = append(shorted, a)
			strandedBytes += a.guaranteeLeft() - alloc[i]
		}
	}
	if len(shorted) == 0 {
		return nil, nil
	}
	c.obs.repairDetected(len(shorted))
	res, survivors, victims, err := c.preemptUntilFit(t, horizon, live, preemptionOrder(shorted, nil))
	if err != nil {
		return nil, nil
	}
	c.reportRepair(t, LevelRepairPreempt, fmt.Sprintf("guarantees relaxed under outage: preempted %d", len(victims)),
		len(shorted), len(shorted), strandedBytes, victims)
	return res, survivors
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
			res, err = c.repairSolve(t, horizon, working, nil)
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

// repairSolve runs one repair LP over the given demand set, routing around
// the pinned transfers' plans without moving them (see samInstance). It
// rides the SAM site's model path — buildOrRebind, so the same size-selected
// build and the same retained model — and the configured chaos injector is
// consulted like any other SAM-site solve: a dead solver kills repair too,
// which is exactly the worst case the ladder's skipped level records.
func (c *Controller) repairSolve(t, horizon int, states, pinned []*admState) (*sched.Result, error) {
	act := c.chaosAction(chaos.ModuleSAM, t)
	if act == chaos.Fail {
		return nil, errInjectedOutage
	}
	c.obs.repairSolve()
	built, err := c.buildOrRebind(c.samInstance(t, horizon, states, pinned))
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
