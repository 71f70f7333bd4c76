package core

import (
	"errors"

	"pretium/internal/graph"
	"pretium/internal/obs"
	"pretium/internal/sched"
)

// errInjectedOutage is what a chaos-killed SAM-site solve reports.
var errInjectedOutage = errors.New("injected solver outage")

// repairTol is the slack below which a planned overload is float dust
// rather than a stranded byte.
const repairTol = 1e-6

// Refund is one guarantee bought back by guarantee repair: the customer
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

// repairGuarantees runs after chaos mutates the planning state at step t,
// before the step's admissions: if the surviving topology no longer
// carries the forward plans of admitted transfers, it re-plans the whole
// live set with keepOrRefund and installs the plan, or, when that solve
// fails, re-places the stranded transfers on the LP-free carry rung
// (carryPlan). Either way the step's arrivals are quoted against a plan
// the surviving topology carries. The outcome lands in Health and the
// event stream; a silent guarantee violation is never an outcome.
func (c *Controller) repairGuarantees(t int) {
	v := c.state.OutageVersion()
	if v == c.churnSeen {
		return
	}
	c.churnSeen = v

	live, horizon := c.liveSet(t)
	affected, _ := c.strandedSplit(t, horizon, live)
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

	level, reason := LevelRepairReplan, ""
	res, victims, err := c.keepOrRefund(t, horizon, live)
	if err != nil {
		level = LevelCarry
		reason, victims = c.carryPlan(t, horizon, live, ModuleRepair, t, err.Error())
	} else {
		if len(victims) > 0 {
			level = LevelRepairPreempt
		}
		c.installPlan(t, ModuleRepair, t, live, res)
	}

	// Close the repair: the settled level and reason go to Health, then
	// the one repair event — the affected transfers, the stranded
	// guarantees and their bytes, and the preempted victims with their
	// refund sum.
	refunded := 0.0
	for _, v := range victims {
		refunded += v.refund
	}
	c.degrade(t, ModuleRepair, level, reason)
	c.cfg.Obs.Emit(t, ModuleRepair, "repair",
		obs.I("affected", len(affected)), obs.I("stranded", guarantees),
		obs.F("stranded_bytes", strandedBytes), obs.I("preempted", len(victims)),
		obs.S("level", level.String()), obs.F("refund", refunded))
}

// keepOrRefund is the controller's one rule for guarantees it may not be
// able to keep, run by repair and by SAM's second rung. It poses the live
// set from step t with every guarantee free to fall short at the rate
// preempt refunds (Payment/Bought per byte) and solves it once. Keeping a
// promise thus competes with breaking it: the LP shorts exactly the
// guarantees whose bill, or lack of room, costs more than their refund,
// and each one shorted is preempted and refunded (refundShorted). It
// returns the plan, for the caller to install, and the refunded states; a
// failed solve refunds nothing.
func (c *Controller) keepOrRefund(t, horizon int, live []*admState) (*sched.Result, []*admState, error) {
	ins := c.samInstance(t, horizon, live, nil)
	for i, a := range live {
		if a.adm.Bought > 0 {
			// Floored so that a guarantee sold for nothing stays breakable:
			// a hard row could make the whole LP infeasible.
			ins.Demands[i].ShortfallCost = max(a.adm.Payment/a.adm.Bought, repairTol)
		}
	}
	res, err := c.solveSAM(t, ins)
	if !errors.Is(err, errInjectedOutage) {
		c.obs.repairSolve()
	}
	if err != nil {
		return nil, nil, err
	}
	return res, c.refundShorted(t, ins, live, res), nil
}

// refundShorted preempts and refunds each state whose guarantee in ins
// the plan res shorts, and returns them.
func (c *Controller) refundShorted(t int, ins *sched.Instance, states []*admState, res *sched.Result) (victims []*admState) {
	for i, a := range states {
		if shorts(ins, res, i) {
			c.preempt(t, a)
			victims = append(victims, a)
		}
	}
	return victims
}

// shorts reports whether res delivers demand i of ins more than repairTol
// short of its guarantee: the one test by which every rung decides that a
// guarantee is not kept.
func shorts(ins *sched.Instance, res *sched.Result, i int) bool {
	return ins.Demands[i].MinBytes-res.Delivered[i] > repairTol
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
