// Package sched builds and solves Pretium's multi-timestep scheduling LPs.
//
// One LP shape (Eq. 2 of the paper) underlies most of the system:
//
//	maximize   Σ_i Σ_{r,t} λ_i X_irt  −  Σ_e C_e z_e
//	subject to Σ_{r,t} X_irt ≤ x_i − B_iτ      (remaining purchased demand)
//	           Σ_{r,t} X_irt ≥ g_i − B_iτ      (remaining guarantee)
//	           Σ_{i,r∋e}  X_irt ≤ c_{e,t}      (capacity, per edge-time)
//	           z_e ≥ mean of top-k loads       (sorting network, §4.2)
//
// The schedule adjustment module (SAM) solves it every timestep with
// marginal prices λ_i as value proxies; the offline optimum (OPT) solves
// it over the whole horizon with true values; the price computer solves it
// over a reference window and reads the *duals* as link prices. This
// package provides the shared builder, the solver wrapper, and the
// dual-price extraction.
package sched

import (
	"fmt"
	"slices"

	"pretium/internal/cost"
	"pretium/internal/graph"
	"pretium/internal/lp"
)

// Demand is one request as seen by the scheduler: how many bytes it may
// still send, how many are promised, and the per-byte value (true value
// for offline oracles, marginal quoted price λ_i for online Pretium).
type Demand struct {
	ID     int
	Routes []graph.Path
	// Start and End bound the allowed transfer timesteps (inclusive).
	Start, End int
	// MaxBytes is the remaining purchased demand x_i - B_iτ.
	MaxBytes float64
	// MinBytes is the remaining guarantee g_i - B_iτ (0 when none).
	MinBytes float64
	// ValuePerByte weights this demand's bytes in the objective.
	ValuePerByte float64
	// Allowed optionally restricts scheduling to these timesteps (still
	// intersected with [Start, End]); nil means the whole interval. The
	// PeakOracle baseline uses it to forbid sending at peak hours whose
	// price exceeds the request's value.
	Allowed []int
}

// allowedMask materializes Allowed into a per-timestep bitmap over
// [0, horizon) so model construction tests membership in O(1) instead of
// scanning the slice per timestep (an O(T²) model build for demands like
// PeakOracle's, whose Allowed lists grow with the horizon). Entries
// outside [0, horizon) are ignored, as the scan never matched them. A
// nil result means every timestep is allowed.
func (d *Demand) allowedMask(horizon int) []bool {
	if d.Allowed == nil {
		return nil
	}
	mask := make([]bool, horizon)
	for _, a := range d.Allowed {
		if a >= 0 && a < horizon {
			mask[a] = true
		}
	}
	return mask
}

// Alloc is one scheduled flow assignment: Bytes of demand DemandIdx on
// route RouteIdx at timestep Time.
type Alloc struct {
	DemandIdx int
	RouteIdx  int
	Time      int
	Bytes     float64
}

// Instance is a scheduling problem over an absolute timestep axis
// [0, Horizon). Allocation happens only in [StartStep, Horizon); earlier
// steps may carry FixedUsage that still counts toward percentile-cost
// windows (a SAM re-optimization mid-window must remember the morning's
// peaks).
type Instance struct {
	Net     *graph.Network
	Horizon int
	// StartStep is τ: the first timestep the scheduler may place bytes.
	StartStep int
	// Capacity[e][t] is the bandwidth available to scheduled traffic
	// (link capacity minus any announced outage).
	Capacity [][]float64
	// FixedUsage[e][t] is prior traffic charged to cost windows but not
	// re-schedulable; nil means none.
	FixedUsage [][]float64
	Demands    []Demand
	// Cost configures percentile charging; UseCostProxy includes the
	// C_e*z_e term in the objective (the NoCost ablation drops it).
	Cost         cost.Config
	UseCostProxy bool
	// WantPrices requests dual-derived link prices in the result. It
	// adds explicit load variables and definition rows (whose duals
	// expose the marginal cost burden), growing the LP; only the Price
	// Computer needs it.
	WantPrices bool
}

// Result is a solved schedule.
type Result struct {
	Status lp.Status
	// Objective is the LP objective: proxy welfare of the schedule.
	Objective float64
	Allocs    []Alloc
	// Delivered[d] is the total bytes scheduled for demand d.
	Delivered []float64
	// EdgeUsage[e][t] is the scheduled load (excluding FixedUsage).
	EdgeUsage [][]float64
	// Price[e][t] is the dual-derived internal link price: the capacity
	// shadow price plus the marginal percentile-cost burden. This is
	// what the Price Computer publishes (§4.3).
	Price [][]float64
	// Iterations counts simplex pivots and Refactors basis
	// refactorizations; the rest of the solver's telemetry goes to
	// opts.Stats (see lp.SolveStats).
	Iterations int
	Refactors  int
	// Suspect flags an Optimal solve whose solution failed the lp residual
	// health check (see lp.Solution.Suspect): allocations are populated but
	// the control loop should treat the solve as failed and retry cold or
	// fall back (the allocations may overfill capacity).
	Suspect bool
	// Basis is the terminal simplex basis, for warm-starting the next
	// solve of a structurally identical instance (see lp.Options.WarmBasis).
	// Non-nil after Optimal and Infeasible solves.
	Basis *lp.Basis
}

// flowVar records where a flow variable came from: demand d, route r,
// timestep t.
type flowVar struct {
	v       lp.Var
	d, r, t int
}

// fixedLoadVar is an equal-bound load variable (constant window load or
// fixed-usage carrier) that Rebind re-pins when FixedUsage changes.
type fixedLoadVar struct {
	v    lp.Var
	e, t int
}

// costWindow records one percentile-charging window's proxy variable so
// Rebind can neutralize windows that slide entirely into the past (their
// charge is sunk — a fresh build would not model them at all).
type costWindow struct {
	z       lp.Var
	we      int // window end (exclusive)
	objCoef float64
}

// Built is a constructed-but-reusable scheduling LP. Building the model is
// itself a nontrivial cost for SAM-sized instances, and keeping the model
// around lets callers perturb it in place (RelaxGuarantees, Rebind) and
// re-solve with a warm basis instead of rebuilding from scratch.
type Built struct {
	ins   *Instance
	model *lp.Model
	flows []flowVar
	// capRow and defRow hold each (edge, step) cell's capacity row and
	// load-definition row at e*Horizon+t, -1 where the build emitted none.
	capRow []lp.Row
	defRow []lp.Row
	// guaranteeRows are the GE rows from demands with MinBytes > 0, in
	// demand order, so infeasible instances can be relaxed in place.
	guaranteeRows []lp.Row

	// implicit records the build mode Build selected (see Instance.Build);
	// the Rebind bookkeeping below is populated only for implicit builds.
	implicit    bool
	builtStart  int
	demandRow   []lp.Row // per demand; -1 when folded into a bound or absent
	guaranteeOf []lp.Row // per demand; -1 when folded into a bound or absent
	guardBound  []lp.Var // per demand; bound-form guarantee variable, -1 if none
	fixedLoads  []fixedLoadVar
	windows     []costWindow
}

// Implicit reports whether Build chose the implicit-bound formulation —
// the only one Rebind can patch, so the only one worth keeping past a solve.
func (b *Built) Implicit() bool { return b.implicit }

// Solve builds the LP and optimizes it. It returns an error for malformed
// instances; infeasibility (e.g. guarantees that no longer fit) is
// reported via Result.Status so callers can relax and retry. Callers that
// may need to relax-and-retry or warm-start later solves should use Build
// and Built.Solve instead, which keep the model.
func (ins *Instance) Solve(opts lp.Options) (*Result, error) {
	b, err := ins.Build()
	if err != nil {
		return nil, err
	}
	return b.Solve(opts)
}

// Build constructs the scheduling LP without solving it, in the formulation
// the instance's size selects. Below lp.LargeModelRows rows every demand
// cap and guarantee is a row: the model the golden trace, the
// fig11 CSV and bench/reference.json pin pivot for pivot, which is the
// only reason the branch still exists. At or above it every flow variable
// carries its tightest implicit upper bound (remaining demand, minimum
// capacity along its route), and single-variable demand caps and
// guarantees become bounds. The bounds
// are redundant with the rows, so the feasible region is unchanged — but
// they let lp's presolve, which Built.Solve turns on for these builds,
// prove most (edge, time) capacity rows non-binding and drop them, which
// is what makes the 106-node/226-edge/T=288 topology solvable inside the
// SAM budget. Only these builds support Built.Rebind. The count compared
// is the explicit build's, so the choice is a function of the instance
// alone, at the threshold where lp switches kernel, pricing rule and cold
// start.
func (ins *Instance) Build() (*Built, error) {
	if err := ins.checkShape(); err != nil {
		return nil, err
	}
	return ins.build(ins.explicitRows() >= lp.LargeModelRows)
}

// checkShape rejects the malformed time axes and capacity matrices that
// build and explicitRows would otherwise index out of range on.
func (ins *Instance) checkShape() error {
	if ins.Horizon <= 0 || ins.StartStep < 0 || ins.StartStep > ins.Horizon {
		return fmt.Errorf("sched: bad time axis [%d, %d)", ins.StartStep, ins.Horizon)
	}
	if ne := ins.Net.NumEdges(); len(ins.Capacity) != ne {
		return fmt.Errorf("sched: capacity has %d edges, network has %d", len(ins.Capacity), ne)
	}
	return nil
}

// explicitRows counts the rows build(false) would emit for ins (which must
// have passed checkShape) without constructing anything: rate-cap,
// demand-cap and guarantee rows per demand, one capacity row per (edge,
// step) some flow crosses, and per live charging window with flow its
// load-definition rows (WantPrices) plus the top-k bound.
// TestExplicitRowsMatchesBuild holds the count equal to the built model's.
func (ins *Instance) explicitRows() int {
	rows := 0
	crossed := make([]bool, ins.Net.NumEdges()*ins.Horizon) // (edge, step) cells
	for di := range ins.Demands {
		d := &ins.Demands[di]
		lo, hi := ins.clip(d)
		allowed := d.allowedMask(ins.Horizon)
		steps := 0
		for t := lo; t <= hi; t++ {
			if allowed != nil && !allowed[t] {
				continue
			}
			steps++
			for _, route := range d.Routes {
				for _, eid := range route {
					if c := int(eid)*ins.Horizon + t; !crossed[c] {
						crossed[c] = true
						rows++
					}
				}
			}
		}
		if steps == 0 || len(d.Routes) == 0 {
			continue
		}
		rows++ // demand cap
		if d.MinBytes > 1e-9 {
			rows++
		}
	}
	if ins.UseCostProxy {
		ins.eachWindow(func(e graph.Edge, ws, we int) {
			withFlow := 0
			for t := ws; t < we; t++ {
				if crossed[int(e.ID)*ins.Horizon+t] {
					withFlow++
				}
			}
			if withFlow == 0 {
				return
			}
			if ins.WantPrices {
				rows += withFlow
			}
			rows += cost.TopKConstraintCount(we-ws, ins.Cost.K(we-ws))
		})
	}
	return rows
}

// clip intersects a demand's interval with the schedulable axis
// [StartStep, Horizon).
func (ins *Instance) clip(d *Demand) (lo, hi int) {
	return max(d.Start, ins.StartStep), min(d.End, ins.Horizon-1)
}

// eachWindow visits every percentile-charging window [ws, we) of every
// usage-priced edge that the scheduler can still influence. Windows
// entirely in the past are sunk cost: nothing it does can change them.
func (ins *Instance) eachWindow(visit func(e graph.Edge, ws, we int)) {
	w := ins.Cost.Window(ins.Horizon)
	for _, e := range ins.Net.Edges() {
		if !e.UsagePriced {
			continue
		}
		for ws := 0; ws < ins.Horizon; ws += w {
			if we := min(ws+w, ins.Horizon); we > ins.StartStep {
				visit(e, ws, we)
			}
		}
	}
}

// build constructs the model in the given mode; ins must have passed
// checkShape. Build is its only caller outside tests, which use it to hold
// the two formulations against each other on instances of any size.
func (ins *Instance) build(implicit bool) (*Built, error) {
	m := lp.NewModel()
	m.SetMaximize(true)

	// Flow variables, grouped per (edge, time) cell for capacity rows.
	var flows []flowVar
	var guaranteeRows []lp.Row
	H := ins.Horizon
	loadTerms := make([][]lp.Term, ins.Net.NumEdges()*H) // cell e*H+t -> terms

	nd := len(ins.Demands)
	demandRow := make([]lp.Row, nd)
	guaranteeOf := make([]lp.Row, nd)
	guardBound := make([]lp.Var, nd)
	for di := range ins.Demands {
		demandRow[di], guaranteeOf[di], guardBound[di] = -1, -1, -1
		d := &ins.Demands[di]
		lo, hi := ins.clip(d)
		var dTerms []lp.Term
		allowed := d.allowedMask(ins.Horizon)
		for ri, route := range d.Routes {
			for t := lo; t <= hi; t++ {
				if allowed != nil && !allowed[t] {
					continue
				}
				up := lp.Inf
				if implicit {
					up = implicitUpper(ins, d, route, t)
				}
				v := m.AddVar(0, up, d.ValuePerByte)
				flows = append(flows, flowVar{v: v, d: di, r: ri, t: t})
				dTerms = append(dTerms, lp.Term{Var: v, Coef: 1})
				for _, eid := range route {
					c := int(eid)*H + t
					loadTerms[c] = append(loadTerms[c], lp.Term{Var: v, Coef: 1})
				}
			}
		}
		if len(dTerms) == 0 {
			if d.MinBytes > 1e-9 {
				return nil, fmt.Errorf("sched: demand %d has a guarantee but no schedulable timesteps", d.ID)
			}
			continue
		}
		if d.MaxBytes < 0 {
			return nil, fmt.Errorf("sched: demand %d has negative MaxBytes", d.ID)
		}
		if implicit && len(dTerms) == 1 {
			// A one-variable demand cap is just an upper bound, already
			// folded into the variable by implicitUpper. A one-variable
			// guarantee is a lower bound — expressible as long as it fits
			// under the upper bound (otherwise keep the row so
			// infeasibility surfaces and can be relaxed).
			v := dTerms[0].Var
			guardBound[di] = v
			if d.MinBytes > 1e-9 {
				if _, up := m.Bounds(v); d.MinBytes <= up {
					m.SetBounds(v, d.MinBytes, up)
				} else {
					guaranteeOf[di] = m.AddConstraint(lp.GE, d.MinBytes, dTerms...)
					guaranteeRows = append(guaranteeRows, guaranteeOf[di])
				}
			}
			continue
		}
		demandRow[di] = m.AddConstraint(lp.LE, d.MaxBytes, dTerms...)
		if d.MinBytes > 1e-9 {
			guaranteeOf[di] = m.AddConstraint(lp.GE, d.MinBytes, dTerms...)
			guaranteeRows = append(guaranteeRows, guaranteeOf[di])
		}
	}

	// Capacity rows (only where flow exists) and price bookkeeping, in
	// (edge, step) order: with degenerate optima, the simplex vertex (and
	// its duals — the published prices) depends on row order.
	capRow := make([]lp.Row, len(loadTerms))
	defRow := make([]lp.Row, len(loadTerms))
	for c, terms := range loadTerms {
		capRow[c], defRow[c] = -1, -1
		if len(terms) > 0 {
			capRow[c] = m.AddConstraint(lp.LE, ins.Capacity[c/H][c%H], terms...)
		}
	}

	// Percentile-cost proxy per usage-priced edge per charging window.
	var fixedLoads []fixedLoadVar
	var windows []costWindow
	if ins.UseCostProxy {
		ins.eachWindow(func(e graph.Edge, ws, we int) {
			eid := int(e.ID)
			// Build per-timestep load expressions. With WantPrices,
			// each becomes an explicit load variable L with a
			// definition row L = flows + fixed, whose dual exposes
			// the marginal cost of load; otherwise the flow terms
			// feed the sorting network directly (smaller LP).
			var loads []cost.LoadExpr
			anyFlow := false
			for t := ws; t < we; t++ {
				fixed := 0.0
				if ins.FixedUsage != nil {
					fixed = ins.FixedUsage[eid][t]
				}
				terms := loadTerms[eid*H+t]
				if len(terms) == 0 {
					// Constant load: a fixed variable keeps the
					// sorting network purely linear.
					lv := m.AddVar(fixed, fixed, 0)
					if implicit {
						fixedLoads = append(fixedLoads, fixedLoadVar{v: lv, e: eid, t: t})
					}
					loads = append(loads, cost.LoadExpr{{Var: lv, Coef: 1}})
					continue
				}
				anyFlow = true
				if !ins.WantPrices {
					expr := append(cost.LoadExpr(nil), terms...)
					// The implicit build always carries a fixed-usage
					// variable, even at zero, so Rebind can re-pin it
					// when earlier steps' traffic becomes FixedUsage.
					if implicit || fixed > 0 {
						fv := m.AddVar(fixed, fixed, 0)
						if implicit {
							fixedLoads = append(fixedLoads, fixedLoadVar{v: fv, e: eid, t: t})
						}
						expr = append(expr, lp.Term{Var: fv, Coef: 1})
					}
					loads = append(loads, expr)
					continue
				}
				lv := m.AddVar(0, lp.Inf, 0)
				// flows + fixed - L = 0  →  Σ flows - L = -fixed.
				def := append(append([]lp.Term(nil), terms...), lp.Term{Var: lv, Coef: -1})
				defRow[eid*H+t] = m.AddConstraint(lp.EQ, -fixed, def...)
				loads = append(loads, cost.LoadExpr{{Var: lv, Coef: 1}})
			}
			if !anyFlow {
				return
			}
			k := ins.Cost.K(we - ws)
			s := cost.AddTopKBound(m, loads, k)
			coef := -e.CostPerUnit / float64(k)
			m.SetObj(s, coef)
			if implicit {
				windows = append(windows, costWindow{z: s, we: we, objCoef: coef})
			}
		})
	}

	return &Built{
		ins:           ins,
		model:         m,
		flows:         flows,
		capRow:        capRow,
		defRow:        defRow,
		guaranteeRows: guaranteeRows,
		implicit:      implicit,
		builtStart:    ins.StartStep,
		demandRow:     demandRow,
		guaranteeOf:   guaranteeOf,
		guardBound:    guardBound,
		fixedLoads:    fixedLoads,
		windows:       windows,
	}, nil
}

// implicitUpper computes the tightest per-variable upper bound implied by
// the instance data for a flow of demand d on route at timestep t: the
// remaining demand and the narrowest capacity along the route. Each is an
// existing constraint the variable alone can never exceed, so the bound
// leaves the feasible region untouched while giving presolve the activity
// ceilings it needs to drop slack capacity rows.
func implicitUpper(ins *Instance, d *Demand, route graph.Path, t int) float64 {
	up := d.MaxBytes
	for _, eid := range route {
		if c := ins.Capacity[eid][t]; c < up {
			up = c
		}
	}
	if up < 0 {
		up = 0
	}
	return up
}

// RelaxGuarantees zeroes the right-hand side of every guarantee row in
// place — the SAM "shed guarantees" fallback for instances whose remaining
// guarantees no longer fit after capacity loss. Because only rhs values
// change (and GE rhs stays nonnegative), the model keeps its standardized
// structure, so a basis captured from the infeasible solve warm-starts the
// relaxed re-solve.
func (b *Built) RelaxGuarantees() {
	for _, r := range b.guaranteeRows {
		b.model.SetRHS(r, 0)
	}
	// Bound-form guarantees (single-variable demands of an implicit build)
	// live in the variable's lower bound instead of a row.
	for _, v := range b.guardBound {
		if v >= 0 {
			if lo, up := b.model.Bounds(v); lo > 0 {
				b.model.SetBounds(v, 0, up)
			}
		}
	}
}

// Rebind re-targets a built model at a successor instance — the same
// topology and demand structure, one or more timesteps later — by patching
// objective coefficients, bounds, and right-hand sides in place. Compared
// to rebuilding, the model keeps its identity (variable/row numbering,
// cached standardization, presolve recipe), so the previous solve's warm
// basis remains valid and consecutive SAM steps avoid the ~10⁶ allocations
// a from-scratch Build costs at paper scale.
//
// Only implicit-bound builds support Rebind (the explicit build bakes
// instance data into its row layout in ways that are not worth
// patching), and only for a successor that Build would itself make
// implicit — otherwise the path a step runs on would depend on what the
// previous step retained, not on the step's own instance. Beyond that the
// successor must match the built instance structurally:
// same network size, horizon, cost config, demand count, and per-demand
// routes/interval/Allowed; StartStep may only advance. Data that may
// change: StartStep, Capacity, FixedUsage, and per-demand MaxBytes /
// MinBytes / ValuePerByte. On any mismatch Rebind returns an error and leaves
// the model untouched in spirit — callers should fall back to a fresh
// Build; partial patches are only a performance concern, never consulted
// again after the fallback.
//
// Flow variables at timesteps before the new StartStep are pinned to zero
// (their traffic is sunk; the caller moves realized bytes into FixedUsage),
// and percentile windows that slid entirely into the past have their proxy
// cost neutralized, matching what a fresh build would omit.
func (b *Built) Rebind(ins *Instance) error {
	if err := ins.checkShape(); err != nil {
		return err
	}
	if ins.explicitRows() < lp.LargeModelRows {
		return fmt.Errorf("sched: Rebind successor is below %d rows and builds explicit", lp.LargeModelRows)
	}
	return b.rebind(ins)
}

// rebind is Rebind without the build-mode test on the successor, so tests
// can patch implicit builds of small instances.
func (b *Built) rebind(ins *Instance) error {
	old := b.ins
	if !b.implicit {
		return fmt.Errorf("sched: Rebind requires an implicit-bound build")
	}
	if ins.Horizon != old.Horizon {
		return fmt.Errorf("sched: Rebind horizon changed %d -> %d", old.Horizon, ins.Horizon)
	}
	if ins.StartStep < b.builtStart || ins.StartStep > ins.Horizon {
		return fmt.Errorf("sched: Rebind start step %d outside [%d, %d]", ins.StartStep, b.builtStart, ins.Horizon)
	}
	ne := ins.Net.NumEdges()
	if ne != old.Net.NumEdges() || len(ins.Capacity) != ne {
		return fmt.Errorf("sched: Rebind network/capacity size changed")
	}
	if ins.UseCostProxy != old.UseCostProxy || ins.WantPrices != old.WantPrices || ins.Cost != old.Cost {
		return fmt.Errorf("sched: Rebind cost configuration changed")
	}
	if len(ins.Demands) != len(old.Demands) {
		return fmt.Errorf("sched: Rebind demand count changed %d -> %d", len(old.Demands), len(ins.Demands))
	}
	m := b.model
	for di := range ins.Demands {
		d2, d1 := &ins.Demands[di], &old.Demands[di]
		if d2.Start != d1.Start || d2.End != d1.End || !pathsEqual(d1.Routes, d2.Routes) || !intsEqual(d1.Allowed, d2.Allowed) {
			return fmt.Errorf("sched: Rebind demand %d routes/interval changed", d2.ID)
		}
		if d2.MaxBytes < 0 {
			return fmt.Errorf("sched: demand %d has negative MaxBytes", d2.ID)
		}
		if b.demandRow[di] >= 0 {
			m.SetRHS(b.demandRow[di], d2.MaxBytes)
		}
		if b.guaranteeOf[di] >= 0 {
			m.SetRHS(b.guaranteeOf[di], d2.MinBytes)
		} else if d2.MinBytes > 1e-9 && b.guardBound[di] < 0 {
			// No row and no bound carrier: the demand had no guarantee (or
			// no variables) at build time, so nothing can enforce one now.
			return fmt.Errorf("sched: Rebind demand %d gained a guarantee", d2.ID)
		}
	}
	for i := range b.flows {
		f := &b.flows[i]
		d2 := &ins.Demands[f.d]
		lo := 0.0
		var up float64
		if f.t < ins.StartStep {
			up = 0
		} else {
			up = implicitUpper(ins, d2, d2.Routes[f.r], f.t)
		}
		if b.guardBound[f.d] == f.v && b.guaranteeOf[f.d] < 0 && d2.MinBytes > 1e-9 {
			if d2.MinBytes > up {
				// A fresh build would fall back to a GE row here (or reject
				// the instance outright when the step is past); this build
				// has neither, so hand the instance back for a rebuild.
				return fmt.Errorf("sched: Rebind demand %d guarantee no longer fits its bound", d2.ID)
			}
			lo = d2.MinBytes
		}
		m.SetBounds(f.v, lo, up)
		m.SetObj(f.v, d2.ValuePerByte)
	}
	H := ins.Horizon
	for c, row := range b.capRow {
		if row < 0 {
			continue // no flow crosses the cell, so no definition row either
		}
		m.SetRHS(row, ins.Capacity[c/H][c%H])
		if row := b.defRow[c]; row >= 0 {
			fixed := 0.0
			if ins.FixedUsage != nil {
				fixed = ins.FixedUsage[c/H][c%H]
			}
			m.SetRHS(row, -fixed)
		}
	}
	for _, fl := range b.fixedLoads {
		fixed := 0.0
		if ins.FixedUsage != nil {
			fixed = ins.FixedUsage[fl.e][fl.t]
		}
		m.SetBounds(fl.v, fixed, fixed)
	}
	for _, wd := range b.windows {
		if wd.we <= ins.StartStep {
			// The window's charge is sunk: a fresh build would not model it.
			// Zeroing the proxy's objective coefficient neutralizes it (the
			// sorting-network rows stay, but cost nothing and bind nothing).
			m.SetObj(wd.z, 0)
		} else {
			m.SetObj(wd.z, wd.objCoef)
		}
	}
	b.ins = ins
	return nil
}

// pathsEqual reports whether two route sets are element-wise identical.
func pathsEqual(a, b []graph.Path) bool {
	return slices.EqualFunc(a, b, slices.Equal[graph.Path])
}

// intsEqual reports whether two int slices are identical (nil == empty is
// NOT assumed: a nil Allowed means "every step", which differs from empty).
func intsEqual(a, b []int) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// Solve optimizes the built model. It can be called repeatedly after
// in-place perturbations (RelaxGuarantees, Rebind), ideally passing the
// previous Result.Basis via opts.WarmBasis. The build mode sets
// opts.Presolve, whatever the caller passed: implicit builds carry their
// bounds to feed it, explicit builds are pinned without it.
func (b *Built) Solve(opts lp.Options) (*Result, error) {
	ins, m := b.ins, b.model
	ne := ins.Net.NumEdges()
	opts.Presolve = b.implicit
	sol, err := m.Solve(opts)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Status:     sol.Status,
		Iterations: sol.Iterations,
		Refactors:  sol.Refactors,
		Suspect:    sol.Suspect,
		Basis:      sol.Basis(),
		Delivered:  make([]float64, len(ins.Demands)),
		EdgeUsage:  make([][]float64, ne),
		Price:      make([][]float64, ne),
	}
	for e := 0; e < ne; e++ {
		res.EdgeUsage[e] = make([]float64, ins.Horizon)
		res.Price[e] = make([]float64, ins.Horizon)
	}
	if sol.Status != lp.Optimal {
		return res, nil
	}
	res.Objective = sol.Objective
	for _, f := range b.flows {
		bytes := sol.X[f.v]
		if bytes < 1e-9 {
			continue
		}
		res.Allocs = append(res.Allocs, Alloc{DemandIdx: f.d, RouteIdx: f.r, Time: f.t, Bytes: bytes})
		res.Delivered[f.d] += bytes
		for _, eid := range ins.Demands[f.d].Routes[f.r] {
			res.EdgeUsage[eid][f.t] += bytes
		}
	}
	// Prices: capacity shadow price plus marginal cost burden. Solution
	// duals are ∂objective/∂rhs in the maximization orientation, so both
	// come out nonnegative at an optimum (clamped against roundoff):
	// raising capacity can only help, and raising the rhs of
	// "Σ flows - L = -fixed" relieves a unit of charged load, gaining
	// exactly the marginal C_e z_e burden. A cell adds its capacity dual
	// before its definition dual.
	H := ins.Horizon
	for c, row := range b.capRow {
		if row < 0 {
			continue
		}
		if p := sol.Dual[row]; p > 0 {
			res.Price[c/H][c%H] += p
		}
		if row := b.defRow[c]; row >= 0 {
			if d := sol.Dual[row]; d > 0 {
				res.Price[c/H][c%H] += d
			}
		}
	}
	return res, nil
}
