// Package core is Pretium itself: the controller that wires the three
// modules of Figure 3 — the request admission interface (RA), the
// schedule adjustment module (SAM), and the price computer (PC) — around
// the shared network state, and drives them over the simulation clock.
//
// Per timestep the controller (1) refreshes internal prices at window
// boundaries via the PC, (2) admits arriving requests with menu quotes,
// (3) re-optimizes the forward schedule with SAM, and (4) realizes the
// current step's planned transfers. AllOrNothing and EnableSAM reproduce
// the paper's Pretium-NoMenu and Pretium-NoSAM variants (Figure 11).
package core

import (
	"fmt"
	"math"
	"strings"
	"time"

	"pretium/internal/chaos"
	"pretium/internal/cost"
	"pretium/internal/graph"
	"pretium/internal/lp"
	"pretium/internal/obs"
	"pretium/internal/pricing"
	"pretium/internal/sched"
	"pretium/internal/sim"
	"pretium/internal/traffic"
)

// Config parameterizes a Pretium deployment.
type Config struct {
	// Horizon is the number of timesteps simulated.
	Horizon int
	// Cost is the percentile-charging rule (shared with accounting).
	Cost cost.Config
	// PriceWindow is W: steps between price recomputations (§4.3). At
	// each window boundary the Price Computer re-solves the offline
	// welfare LP over the window just ended.
	PriceWindow int
	// InitialPrice seeds P_{e,t} before any history exists.
	InitialPrice float64
	// MinPrice floors recomputed prices. Both prices must be finite and
	// non-negative.
	MinPrice float64
	// HighPriActual, when non-nil, is the high-pri traffic that actually
	// materializes (§4.4), one row of exactly Horizon steps per edge: it
	// physically consumes link capacity the planner never sees, so it
	// squeezes scheduled transfers exactly like an unannounced fault —
	// which is how one is modelled: leaving fraction f of edge e adds
	// Capacity*(1-f) to its cells. Every cell must be finite and
	// non-negative (pricing.CheckHighPriMatrix).
	HighPriActual [][]float64
	// EnableSAM switches schedule adjustment, run every timestep as the
	// paper recommends (off = Pretium-NoSAM).
	EnableSAM bool
	// Purchase overrides the customer decision rule for byte requests:
	// given the menu quoted up to the demand, it returns the bytes
	// bought, clamped to the demand. Nil applies Theorem 5.2's
	// linear-utility rule; AllOrNothing is Pretium-NoMenu's. Other rules
	// model §4.4's nonlinear utilities, e.g. concave value.
	Purchase func(menu *pricing.Menu, req *traffic.Request) float64
	// Chaos, when non-nil, is a deterministic fault injector consulted
	// before every LP solve and at the top of every step (see
	// internal/chaos). It exists so robustness tests can force solver
	// outages, price corruption, and capacity flaps at exact steps and
	// assert the controller's degradation ladder handles each one. With
	// HighPriActual it is the only capacity-loss input: an announced fault
	// is a chaos.Outage, planned around and repaired like any outage.
	Chaos chaos.Injector
	// Obs, when non-nil, receives the controller's metrics (admissions,
	// ladder levels, solver telemetry, price duals) and its structured
	// event trace. Nil disables observability at ~zero cost. A controller
	// must own its recorder exclusively for the event stream to be
	// deterministic (see obs.Recorder).
	Obs *obs.Recorder
}

// DefaultConfig returns the full Pretium configuration over the given
// horizon with daily (24-step) pricing and charging windows.
func DefaultConfig(horizon int) Config {
	return Config{
		Horizon:      horizon,
		Cost:         cost.DefaultConfig(24),
		PriceWindow:  24,
		InitialPrice: 0.5,
		MinPrice:     0.05,
		EnableSAM:    true,
	}
}

// AllOrNothing is the purchase rule of the Pretium-NoMenu ablation
// (Figure 11): the customer takes the full demand iff the menu guarantees
// all of it and its total price is within the request's value, and
// otherwise walks away.
func AllOrNothing(menu *pricing.Menu, req *traffic.Request) float64 {
	if menu.Cap() >= req.Demand-1e-9 && menu.Price(req.Demand) <= req.Value*req.Demand {
		return req.Demand
	}
	return 0
}

// Timings collects per-module runtimes (Table 4).
type Timings struct {
	RA, SAM, PC []time.Duration
}

// admState tracks one admitted (sub)request through its lifetime.
type admState struct {
	adm       *pricing.Admission
	reqIdx    int
	start     int // allowed window (absolute steps)
	end       int
	delivered float64
	plan      []pricing.ReservedAlloc // forward plan, absolute times
	// preempted marks a guarantee bought back (keepOrRefund, or the carry
	// rung): the transfer stops, the customer pays pro-rata for delivered
	// bytes, and refund is returned at finalize (see repair.go).
	preempted bool
	refund    float64
}

func (a *admState) remaining() float64 { return a.adm.Bought - a.delivered }

// live reports whether the transfer still has bytes SAM may schedule at
// step t or later.
func (a *admState) live(t int) bool {
	return !a.preempted && a.end >= t && a.remaining() > 1e-9
}
func (a *admState) guaranteeLeft() float64 {
	g := a.adm.Guaranteed - a.delivered
	if g < 0 {
		return 0
	}
	return g
}

// Controller runs Pretium over a request stream.
type Controller struct {
	cfg   Config
	net   *graph.Network
	state *pricing.State
	// quoter owns the scratch every admission-path quote against state
	// reuses; commits go through pricing.Commit, as in serve.Service.
	quoter pricing.Quoter
	reqs   []*traffic.Request
	// active holds one record per admitted (sub)request, in admission
	// order: SAM's live set and the price computer's history.
	active  []*admState
	outcome *sim.Outcome
	// Admitted[i] reports whether request i was admitted, and
	// AdmissionPrice[i] the per-byte marginal price it accepted
	// (Figure 7c plots price vs value).
	Admitted       []bool
	AdmissionPrice []float64
	Timings        Timings
	// Health records every degradation the control loop absorbed: which
	// rung of the ladder each step settled at, and why. Run never aborts
	// mid-horizon on solver trouble; Health is where the trouble shows.
	Health *Health
	// Refunds lists every guarantee repair bought back, in
	// preemption order: the explicit money trail behind Outcome.Refunded.
	Refunds []Refund
	// churnSeen is the last outage-overlay version the repair loop
	// examined; an unchanged version means no new churn to repair.
	churnSeen uint64
	// trueCap is the physical per-(edge,step) capacity left to scheduled
	// traffic by high-pri usage, before any chaos outage.
	trueCap [][]float64
	// obs holds pre-resolved metric handles (each nil when Config.Obs
	// is); samStats/pcStats accumulate per-module solver telemetry via the
	// lp.Options.Stats hook and publish to obs at finalize.
	obs      coreObs
	samStats lp.SolveStats
	pcStats  lp.SolveStats
}

// New creates a controller for the request stream, rejecting any request
// that does not validate against the network. Run admits every request at
// its Arrival step, so the stream need not be sorted by arrival: only the
// order of requests that share an arrival step matters, and they are
// admitted in stream order.
func New(net *graph.Network, reqs []*traffic.Request, cfg Config) (*Controller, error) {
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("core: horizon must be positive")
	}
	if cfg.PriceWindow <= 0 {
		cfg.PriceWindow = cfg.Horizon
	}
	if !finiteNonNeg(cfg.InitialPrice) || !finiteNonNeg(cfg.MinPrice) {
		return nil, fmt.Errorf("core: InitialPrice %v and MinPrice %v must be finite and non-negative", cfg.InitialPrice, cfg.MinPrice)
	}
	if err := cfg.Cost.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.HighPriActual != nil {
		if err := pricing.CheckHighPriMatrix(cfg.HighPriActual, net.NumEdges(), cfg.Horizon); err != nil {
			return nil, fmt.Errorf("core: HighPriActual: %w", err)
		}
	}
	if err := chaos.CheckEdges(cfg.Chaos, net.NumEdges()); err != nil {
		return nil, err
	}
	for _, r := range reqs {
		if err := r.Validate(net); err != nil {
			return nil, err
		}
	}
	st := pricing.NewState(net, cfg.Horizon, cfg.InitialPrice)
	// Usage-priced links start at the initial price plus their
	// *amortized* percentile charge C_e/W (the break-even rate under
	// flat load) rather than NewState's conservative full C_e, so day
	// one is neither free-riding nor prohibitive.
	w := cfg.Cost.Window(cfg.Horizon)
	for _, e := range net.Edges() {
		if !e.UsagePriced {
			continue
		}
		p := cfg.InitialPrice + e.CostPerUnit/float64(w)
		for t := 0; t < cfg.Horizon; t++ {
			st.SetBasePrice(e.ID, t, p)
		}
	}
	c := &Controller{
		cfg:            cfg,
		net:            net,
		state:          st,
		reqs:           reqs,
		outcome:        sim.NewOutcome(len(reqs), net, cfg.Horizon),
		Admitted:       make([]bool, len(reqs)),
		AdmissionPrice: make([]float64, len(reqs)),
		Health:         newHealth(cfg.Horizon),
	}
	c.obs = newCoreObs(cfg.Obs)
	c.quoter.SetObs(cfg.Obs.Metrics())
	// Physical capacity available to scheduled traffic (what `realize`
	// clamps against, less the outage overlay): actual high-pri usage,
	// silent faults included, drains it directly.
	c.trueCap = make([][]float64, net.NumEdges())
	for _, e := range net.Edges() {
		c.trueCap[e.ID] = make([]float64, cfg.Horizon)
		for t := 0; t < cfg.Horizon; t++ {
			c.trueCap[e.ID][t] = e.Capacity
			if cfg.HighPriActual != nil {
				c.trueCap[e.ID][t] = max(e.Capacity-cfg.HighPriActual[e.ID][t], 0)
			}
		}
	}
	return c, nil
}

func finiteNonNeg(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// State exposes the live network state (read-mostly; used by experiments
// that inspect prices).
func (c *Controller) State() *pricing.State { return c.state }

// Run executes the full simulation and returns the realized outcome.
func (c *Controller) Run() (*sim.Outcome, error) {
	byArrival := make(map[int][]int)
	for i, r := range c.reqs {
		byArrival[r.Arrival] = append(byArrival[r.Arrival], i)
	}
	for t := 0; t < c.cfg.Horizon; t++ {
		if t > 0 && t%c.cfg.PriceWindow == 0 {
			c.runPC(t)
		}
		// Chaos state mutations land after the PC so a corrupted price at a
		// window boundary is what quotes actually see, and what step t's
		// base price stays: nothing later writes a past step's price.
		// Guarantee repair runs immediately after: whatever topology the
		// injectors just broke is what admissions and SAM must plan on.
		if c.cfg.Chaos != nil {
			c.cfg.Chaos.BeforeStep(t, c.state)
			c.repairGuarantees(t)
		}
		for _, idx := range byArrival[t] {
			c.admit(idx)
		}
		if c.cfg.EnableSAM {
			c.runSAM(t)
		}
		c.realize(t)
	}
	c.finalize()
	return c.outcome, nil
}

// admit runs the RA interface for the arriving request at stream
// position idx. The position, not Request.ID, addresses every per-request
// record, so a stream that holds one *Request twice admits and accounts
// each position on its own.
func (c *Controller) admit(idx int) {
	started := time.Now()
	defer func() { c.Timings.RA = append(c.Timings.RA, time.Since(started)) }()

	r := c.reqs[idx]
	if r.Kind == traffic.RateRequest {
		c.admitRate(idx, r)
		return
	}
	if r.Kind == traffic.ScavengerRequest {
		c.admitScavenger(idx, r)
		return
	}
	menu := c.quoter.Quote(c.state, r, r.Demand)
	bought := menu.Purchase(r.Value, r.Demand)
	if c.cfg.Purchase != nil {
		bought = math.Min(c.cfg.Purchase(menu, r), r.Demand)
	}
	adm := pricing.Commit(c.state, r, menu, bought)
	bumps := 0
	if c.cfg.Obs != nil {
		bumps = c.priceBumps(r, menu)
	}
	if adm == nil {
		c.obs.admission(false, bumps)
		c.cfg.Obs.Emit(r.Arrival, "RA", "decline",
			obs.I("req", idx), obs.I("menu", len(menu.Segments)), obs.I("bumps", bumps))
		return
	}
	c.obs.admission(true, bumps)
	c.cfg.Obs.Emit(r.Arrival, "RA", "admit",
		obs.I("req", idx), obs.I("menu", len(menu.Segments)), obs.I("bumps", bumps),
		obs.F("bought", adm.Bought), obs.F("lambda", adm.Lambda))
	c.Admitted[idx] = true
	c.AdmissionPrice[idx] = adm.Lambda
	c.enroll(adm, idx, r.Start, r.End)
}

// enroll hands an admitted (sub)request over [start, end] to SAM; the
// same record is its price-computer history (see runPC).
func (c *Controller) enroll(adm *pricing.Admission, idx, start, end int) {
	c.active = append(c.active, &admState{
		adm: adm, reqIdx: idx, start: start, end: end,
		plan: append([]pricing.ReservedAlloc(nil), adm.Allocs...),
	})
}

// priceBumps counts menu segments quoted strictly above the base price of
// their route at their timestep — i.e. segments where the short-term
// price-adjustment premium (§4.2's defense of guarantees under load) was
// active. A menu with zero bumps was quoted entirely at base prices.
func (c *Controller) priceBumps(r *traffic.Request, menu *pricing.Menu) int {
	if menu == nil {
		return 0
	}
	n := 0
	for _, seg := range menu.Segments {
		base := 0.0
		for _, e := range r.Routes[seg.RouteIdx] {
			base += c.state.BasePrice[e][seg.Time]
		}
		if seg.Price > base+1e-12 {
			n++
		}
	}
	return n
}

// admitRate expands a rate request into per-timestep quotes (§4.4): each
// step is priced separately, the bundle is bought if the total price is
// within the customer's value, and each step becomes its own guarantee.
func (c *Controller) admitRate(idx int, r *traffic.Request) {
	type stepQuote struct {
		t    int
		menu *pricing.Menu
	}
	var quotes []stepQuote
	total := 0.0
	feasibleRate := r.Rate
	for t := r.Start; t <= r.End && t < c.cfg.Horizon; t++ {
		stepReq := *r
		stepReq.Start, stepReq.End = t, t
		stepReq.Demand = r.Rate
		menu := c.quoter.Quote(c.state, &stepReq, r.Rate)
		if menu.Cap() < feasibleRate {
			feasibleRate = menu.Cap()
		}
		quotes = append(quotes, stepQuote{t: t, menu: menu})
	}
	for _, q := range quotes {
		total += q.menu.Price(feasibleRate)
	}
	bytes := feasibleRate * float64(len(quotes))
	if feasibleRate <= 1e-9 || len(quotes) == 0 || total > r.Value*bytes {
		c.obs.admission(false, 0)
		c.cfg.Obs.Emit(r.Arrival, "RA", "decline",
			obs.I("req", idx), obs.S("kind", "rate"), obs.I("steps", len(quotes)))
		return // nothing schedulable, or the bundle is not worth it
	}
	committed := 0
	for _, q := range quotes {
		stepReq := *r
		stepReq.Start, stepReq.End = q.t, q.t
		stepReq.Demand = feasibleRate
		adm := pricing.Commit(c.state, &stepReq, q.menu, feasibleRate)
		if adm == nil {
			continue
		}
		committed++
		c.enroll(adm, idx, q.t, q.t)
	}
	// Only count the request admitted once at least one per-step commit
	// actually held; quotes can go stale between Quote and Commit (state
	// moved under us), and a rate request with zero committed steps is a
	// rejection, not an admission at the quoted price.
	if committed > 0 {
		c.Admitted[idx] = true
		c.AdmissionPrice[idx] = total / bytes
	}
	c.obs.admission(committed > 0, 0)
	c.cfg.Obs.Emit(r.Arrival, "RA", "admit_rate",
		obs.I("req", idx), obs.I("committed", committed), obs.F("rate", feasibleRate))
}

// admitScavenger enrolls a best-effort request (§4.4): no quote, no
// reservation, no guarantee. The customer's named per-byte price becomes
// the value proxy λ, so SAM schedules scavenger bytes exactly when they
// beat the marginal percentile-cost burden of residual capacity. Without
// SAM enabled the scavenger class is inert, as there is no plan to ride.
func (c *Controller) admitScavenger(idx int, r *traffic.Request) {
	c.Admitted[idx] = true
	c.AdmissionPrice[idx] = r.Value
	c.enroll(&pricing.Admission{Request: r, Bought: r.Demand, Lambda: r.Value}, idx, r.Start, r.End)
	c.obs.admission(true, 0)
	c.cfg.Obs.Emit(r.Arrival, "RA", "admit",
		obs.I("req", idx), obs.S("kind", "scavenger"), obs.F("bought", r.Demand))
}

// runSAM re-optimizes the forward schedule from step t (Eq. 2). It never
// fails: on solver trouble it walks the degradation ladder, recording how
// far it had to descend in the Health report:
//
//	rung 1: the LP on a fresh build of the step's instance;
//	rung 2: when its guarantees no longer fit jointly, keepOrRefund — the
//	        live set re-solved with every guarantee breakable at its
//	        refund rate, each one shorted preempted and refunded;
//	carry:  otherwise carry the installed plan and re-place, LP-free,
//	        only what an outage strands (carryPlan).
//
// A dead solver degrades the schedule's optimality, never the run.
func (c *Controller) runSAM(t int) {
	started := time.Now()
	defer func() { c.Timings.SAM = append(c.Timings.SAM, time.Since(started)) }()

	live, horizon := c.liveSet(t)
	if len(live) == 0 {
		return
	}
	lvl, reason := LevelOK, ""
	res, err := c.solveSAM(t, c.samInstance(t, horizon, live, nil))
	if err != nil {
		// The rung keeps its "warm" label: Health reasons and traces read it.
		reason = "warm: " + err.Error()
		if res != nil && res.Status == lp.Infeasible {
			var victims []*admState
			if res, victims, err = c.keepOrRefund(t, horizon, live); err != nil {
				reason += "; refund: " + err.Error()
			}
			lvl = LevelRepairReplan
			if len(victims) > 0 {
				lvl = LevelRepairPreempt
			}
		}
	}
	if err != nil {
		reason, _ = c.carryPlan(t, horizon, live, ModuleSAM, t+1, reason)
		c.degrade(t, ModuleSAM, LevelCarry, reason)
		c.obs.samSolve(LevelCarry, 0)
		return
	}
	if lvl > LevelOK {
		c.degrade(t, ModuleSAM, lvl, reason)
	}
	if c.cfg.Obs != nil {
		scheduled := 0.0
		for _, al := range res.Allocs {
			scheduled += al.Bytes
		}
		guaranteed := 0.0
		for _, a := range live {
			guaranteed += a.guaranteeLeft()
		}
		c.obs.samSolve(lvl, scheduled)
		c.cfg.Obs.Emit(t, ModuleSAM, "solve",
			obs.I("live", len(live)), obs.S("level", lvl.String()),
			obs.F("scheduled", scheduled), obs.F("guaranteed", guaranteed))
	}
	c.installPlan(t, ModuleSAM, t+1, live, res)
}

// liveSet returns the admitted transfers a SAM-site solve at step t may
// still schedule, in admission order, and the horizon that covers them.
func (c *Controller) liveSet(t int) (live []*admState, horizon int) {
	maxEnd := t
	for _, a := range c.active {
		if !a.live(t) {
			continue
		}
		live = append(live, a)
		if a.end > maxEnd {
			maxEnd = a.end
		}
	}
	return live, min(maxEnd+1, c.cfg.Horizon)
}

// samInstance poses the scheduling LP (Eq. 2) for states from step t — the
// one place the controller does. Realized usage before t is charged to the
// cost windows as fixed usage. The forward plans of pinned transfers
// (the carry rung's re-placement; nil elsewhere) are subtracted from
// schedulable capacity and charged the same way, so the solve routes around
// them without moving them.
func (c *Controller) samInstance(t, horizon int, states, pinned []*admState) *sched.Instance {
	ne := c.net.NumEdges()
	capacity := make([][]float64, ne)
	fixed := make([][]float64, ne)
	for e := range capacity {
		capacity[e] = make([]float64, horizon)
		fixed[e] = make([]float64, horizon)
		for tt := 0; tt < horizon; tt++ {
			capacity[e][tt] = c.state.Capacity(graph.EdgeID(e), tt)
			if tt < t {
				fixed[e][tt] = c.outcome.Usage[e][tt]
			}
		}
	}
	for _, a := range pinned {
		for _, al := range a.plan {
			if al.Time < t || al.Time >= horizon {
				continue
			}
			for _, e := range a.adm.Request.Routes[al.RouteIdx] {
				capacity[e][al.Time] -= al.Bytes
				if capacity[e][al.Time] < 0 {
					capacity[e][al.Time] = 0
				}
				fixed[e][al.Time] += al.Bytes
			}
		}
	}
	demands := make([]sched.Demand, len(states))
	for i, a := range states {
		demands[i] = sched.Demand{
			ID:           i,
			Routes:       a.adm.Request.Routes,
			Start:        a.start,
			End:          a.end,
			MaxBytes:     a.remaining(),
			MinBytes:     a.guaranteeLeft(),
			ValuePerByte: a.adm.Lambda,
		}
	}
	return &sched.Instance{
		Net: c.net, Horizon: horizon, StartStep: t,
		Capacity: capacity, FixedUsage: fixed,
		Demands: demands, Cost: c.cfg.Cost, UseCostProxy: true,
	}
}

// installPlan replaces the forward plans of the solved demand set (a state
// repair just preempted keeps none), then rebuilds the reservation matrix
// from every live plan at steps >= from (releasing whatever finished or
// preempted transfers held). SAM installs
// after step t's admissions and frees the step being realized (from t+1);
// repair runs *before* them, so step t stays reserved (from t) or new
// admissions would be quoted into cells the surviving plans still occupy.
func (c *Controller) installPlan(t int, module string, from int, states []*admState, res *sched.Result) {
	for _, a := range states {
		a.plan = a.plan[:0]
	}
	for _, al := range res.Allocs {
		a := states[al.DemandIdx]
		if a.preempted {
			continue
		}
		a.plan = append(a.plan, pricing.ReservedAlloc{RouteIdx: al.RouteIdx, Time: al.Time, Bytes: al.Bytes})
	}
	reserved := make([][]float64, c.net.NumEdges())
	for e := range reserved {
		reserved[e] = make([]float64, c.cfg.Horizon)
	}
	for _, a := range c.active {
		if !a.live(t) {
			continue
		}
		for _, al := range a.plan {
			if al.Time < from {
				continue
			}
			for _, e := range a.adm.Request.Routes[al.RouteIdx] {
				reserved[e][al.Time] += al.Bytes
			}
		}
	}
	// Dimensions are ours by construction; an error here means a bug, not
	// solver trouble — surface it as a carry-level event rather than dying.
	if err := c.state.SetReserved(reserved); err != nil {
		c.degrade(t, module, LevelCarry, "SetReserved: "+err.Error())
	}
}

// degrade records one degradation in the Health report and mirrors it
// into the event trace, so a golden trace pins down not just what the
// loop did but every rung it had to give up on the way.
func (c *Controller) degrade(t int, module string, lvl Level, reason string) {
	c.Health.record(t, module, lvl, reason)
	c.cfg.Obs.Emit(t, module, "degrade",
		obs.S("level", lvl.String()), obs.S("reason", reason))
}

// solverDown reports whether the configured injector takes module's
// solver down at step t (never, with no injector).
func (c *Controller) solverDown(module string, t int) bool {
	return c.cfg.Chaos != nil && c.cfg.Chaos.SolverDown(module, t)
}

// solveErr maps a scheduler result to the lp error taxonomy: nil only for
// a clean Optimal solution whose residual check passed.
func solveErr(r *sched.Result) error {
	if r.Status == lp.Optimal && !r.Suspect {
		return nil
	}
	if r.Status == lp.Optimal {
		return lp.ErrSuspect
	}
	return r.Status.Err()
}

// solveSAM runs one SAM-site solve at step t — the step's LP and every
// priced one — on a fresh, size-selected build of ins, returning a nil
// error only for a clean Optimal result. A dead solver fails every such
// solve, repair's too, and each caller falls to the carry rung.
func (c *Controller) solveSAM(t int, ins *sched.Instance) (*sched.Result, error) {
	if c.solverDown(chaos.ModuleSAM, t) {
		return nil, errInjectedOutage
	}
	r, err := ins.Solve(lp.Options{Stats: &c.samStats})
	if err != nil {
		return nil, err
	}
	return r, solveErr(r)
}

// carryPlan is the ladder's LP-free bottom rung. The installed plan — RA's
// reservations plus the last solve — honours every guarantee sold, so it
// is kept; only the transfers riding a cell the surviving capacity no
// longer carries are re-placed with SolveGreedy (guarantees
// earliest-deadline first): first around the pinned rest, failing that
// the whole live set. Each guarantee not even the whole-set plan keeps is
// preempted and refunded (refundShorted), as keepOrRefund would; the plan
// is installed for the rest, by module from step from (see installPlan).
// It returns reason extended by the placements that failed, and the
// refunded states.
func (c *Controller) carryPlan(t, horizon int, live []*admState, module string, from int, reason string) (string, []*admState) {
	affected, pinned := c.strandedSplit(t, horizon, live)
	if len(affected) == 0 {
		return reason, nil
	}
	reasons := []string{reason}
	states, ins := affected, c.samInstance(t, horizon, affected, pinned)
	res, err := greedyPlace(ins)
	if err != nil {
		reasons = append(reasons, "reroute: "+err.Error())
		states, ins = live, c.samInstance(t, horizon, live, nil)
		if res, err = greedyPlace(ins); err != nil {
			reasons = append(reasons, "replan: "+err.Error())
		}
	}
	var victims []*admState
	if res != nil {
		victims = c.refundShorted(t, ins, states, res)
		c.installPlan(t, module, from, states, res)
	}
	return strings.Join(reasons, "; "), victims
}

// greedyPlace is the carry rung's solve: SolveGreedy, failing with
// lp.ErrInfeasible when its plan shorts a guarantee.
func greedyPlace(ins *sched.Instance) (*sched.Result, error) {
	res, err := ins.SolveGreedy()
	if err != nil {
		return nil, err
	}
	for i := range ins.Demands {
		if shorts(ins, res, i) {
			return res, lp.ErrInfeasible
		}
	}
	return res, nil
}

// realize executes every plan entry scheduled for step t, clamped to the
// physical capacity the two capacity-loss inputs leave — nameplate less
// HighPriActual (silent faults) and the chaos outage overlay (announced
// ones), which can be below what the plan assumed. Overloaded links shed
// load proportionally, like a router dropping excess traffic.
func (c *Controller) realize(t int) {
	type intent struct {
		a     *admState
		route graph.Path
		bytes float64
	}
	var intents []intent
	load := make(map[graph.EdgeID]float64)
	for _, a := range c.active {
		for _, al := range a.plan {
			if al.Time != t {
				continue
			}
			take := math.Min(al.Bytes, a.remaining())
			if take <= 1e-12 {
				continue
			}
			route := a.adm.Request.Routes[al.RouteIdx]
			intents = append(intents, intent{a: a, route: route, bytes: take})
			for _, e := range route {
				load[e] += take
			}
		}
	}
	scale := make(map[graph.EdgeID]float64, len(load))
	for e, l := range load {
		cap := c.trueCap[e][t]
		// Injected outages are physical, not just planning state: a cut
		// link carries nothing however stale the plan riding it is. The
		// overlay is all-zero without chaos, leaving cap bit-identical.
		if out := c.state.OutageAt(e, t); out > 0 {
			cap -= out
		}
		if l > cap {
			if cap < 0 {
				cap = 0
			}
			scale[e] = cap / l
		}
	}
	for _, in := range intents {
		f := 1.0
		for _, e := range in.route {
			if s, ok := scale[e]; ok && s < f {
				f = s
			}
		}
		take := in.bytes * f
		if take <= 1e-12 {
			continue
		}
		in.a.delivered += take
		c.outcome.Delivered[in.a.reqIdx] += take
		c.outcome.Events = append(c.outcome.Events, sim.DeliveryEvent{Req: in.a.reqIdx, Time: t, Bytes: take})
		for _, e := range in.route {
			c.outcome.Usage[e][t] += take
		}
	}
}

// runPC recomputes prices at a window boundary t using the window just
// ended as history (§4.3).
func (c *Controller) runPC(t int) {
	started := time.Now()
	defer func() { c.Timings.PC = append(c.Timings.PC, time.Since(started)) }()

	w := c.cfg.PriceWindow
	from := t - w
	var entries []pricing.HistoryEntry
	for _, a := range c.active {
		if a.end < from || a.start >= t {
			continue
		}
		entries = append(entries, pricing.HistoryEntry{
			Routes: a.adm.Request.Routes,
			Start:  max(a.start-from, 0), End: min(a.end-from, w-1),
			Bytes: a.adm.Bought, Lambda: a.adm.Lambda,
		})
	}
	if len(entries) == 0 {
		return
	}
	capacity := make([][]float64, c.net.NumEdges())
	for e := range capacity {
		capacity[e] = make([]float64, w)
		for i := 0; i < w; i++ {
			capacity[e][i] = c.state.Capacity(graph.EdgeID(e), from+i)
		}
	}
	if c.solverDown(chaos.ModulePC, t) {
		c.obs.pcRetain()
		c.degrade(t, ModulePC, LevelRetainedPrices,
			"injected solver outage; retaining prior window prices")
		return
	}
	window, err := pricing.ComputePrices(c.net, entries, capacity, w, 0,
		pricing.ComputerConfig{
			WindowLen: w, Cost: c.cfg.Cost,
			MinPrice: c.cfg.MinPrice, CostFloorFrac: 1,
			Solver: lp.Options{Stats: &c.pcStats},
		})
	if err != nil {
		// Retaining the prior window's prices is a deliberate degradation:
		// quotes stay well-defined but stop tracking current load. Record
		// it so the decision is auditable instead of silent.
		c.obs.pcRetain()
		c.degrade(t, ModulePC, LevelRetainedPrices,
			"solve failed ("+err.Error()+"); retaining prior window prices")
		return
	}
	if err := c.state.SetPricesWindow(t, window); err != nil {
		c.obs.pcRetain()
		c.degrade(t, ModulePC, LevelRetainedPrices,
			"price window rejected ("+err.Error()+"); retaining prior window prices")
		return
	}
	if c.cfg.Obs != nil {
		maxPrice := c.obs.pcUpdate(window)
		c.cfg.Obs.Emit(t, ModulePC, "update",
			obs.I("entries", len(entries)), obs.I("window", w), obs.F("price_max", maxPrice))
	}
}

// finalize computes payments and renege accounting. Menu-admitted
// requests pay the menu price of their delivered bytes; scavenger
// requests (no menu) pay their named per-byte price.
func (c *Controller) finalize() {
	refundTotal := 0.0
	for _, a := range c.active {
		if a.preempted {
			// Preemption is a buy-back, not a violation: the customer is
			// charged their upfront payment minus the refund (pro-rata for
			// undelivered bytes), and the shortfall is accounted as
			// Refunded, never Reneged.
			c.outcome.Payments[a.reqIdx] += a.adm.Payment - a.refund
			c.outcome.Refunded[a.reqIdx] += a.refund
			refundTotal += a.refund
			continue
		}
		charged := math.Min(a.delivered, a.adm.Bought)
		if a.adm.Menu != nil {
			c.outcome.Payments[a.reqIdx] += a.adm.Menu.Price(charged)
		} else {
			c.outcome.Payments[a.reqIdx] += a.adm.Lambda * charged
		}
		if short := a.adm.Guaranteed - a.delivered; short > 1e-9 {
			c.outcome.Reneged[a.reqIdx] += short
		}
	}
	c.obs.refundTotal(refundTotal)
	publishLP(c.cfg.Obs.Metrics(), "sam.lp", c.samStats)
	publishLP(c.cfg.Obs.Metrics(), "pc.lp", c.pcStats)
}
