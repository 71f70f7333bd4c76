package main

import (
	"fmt"
	"math"
	"time"

	"pretium/internal/core"
	"pretium/internal/exp"
	"pretium/internal/graph"
	"pretium/internal/lp"
	"pretium/internal/obs"
	"pretium/internal/pricing"
	"pretium/internal/sim"
)

// loopRuns is how many times the untraced pass runs the controller on
// the same input. The wall clock is the faster of the two — a run that
// shared its core with a neighbour for a few seconds only ever reads
// slow, never fast — and the second run is what the bit-identical
// welfare check compares against.
const loopRuns = 2

// loopSetupRepeats is how many times loop-wan16 times its set-up; setup_s
// is the median. The set-up is two milliseconds, which repeats within a
// quarter only over a couple of dozen readings.
const loopSetupRepeats = 25

// loopRun is one execution of the whole controller.
type loopRun struct {
	setup   *exp.Setup
	ctl     *core.Controller
	out     *sim.Outcome
	rep     sim.Report
	newMS   float64
	wallS   float64
	evalMS  float64
	problem string
}

// runLoopOnce builds the input from the seed, constructs the controller
// exactly as it ships (core.New on setup.PretiumConfig(), no opt-in),
// runs it and evaluates the outcome with exact percentile costs.
func runLoopOnce(seed int64, rec *obs.Recorder, tr *tracer, id int64) *loopRun {
	r := &loopRun{}
	sp := tr.begin("exp", "NewSetup", id)
	r.setup = genLoop(seed, rec)
	tr.end(sp)
	sp = tr.begin("core", "New", id)
	t1 := time.Now()
	ctl, err := core.New(r.setup.Net, r.setup.Requests, r.setup.PretiumConfig())
	r.newMS = sinceMS(t1)
	tr.end(sp)
	if err != nil {
		r.problem = "core.New: " + err.Error()
		return r
	}
	r.ctl = ctl

	sp = tr.begin("core", "Controller.Run", id)
	t1 = time.Now()
	r.out, err = ctl.Run()
	r.wallS = time.Since(t1).Seconds()
	tr.end(sp)
	if err != nil {
		r.problem = "Controller.Run: " + err.Error()
		return r
	}

	sp = tr.begin("sim", "Evaluate", id)
	t1 = time.Now()
	r.rep, err = sim.Evaluate(r.setup.Net, r.setup.Requests, r.out, r.setup.Cost)
	r.evalMS = sinceMS(t1)
	tr.end(sp)
	if err != nil {
		r.problem = "sim.Evaluate: " + err.Error()
	}
	return r
}

// checkLoop is the output checker of loop-wan16: no link over capacity,
// no guarantee reneged, every step at LevelOK. It returns the steps
// attempted and how many of them count as failed.
func checkLoop(rep *report, r *loopRun, tr *tracer) (attempted, failed int64) {
	if r.problem != "" {
		rep.fail("%s", r.problem)
		return loopSteps, loopSteps
	}
	sp := tr.begin("sim", "CheckCapacities", 0)
	err := sim.CheckCapacities(r.setup.Net, r.out.Usage, 1e-6)
	tr.end(sp)
	if err != nil {
		rep.fail("%v", err)
	}
	reneged, renegers := 0.0, int64(0)
	for _, b := range r.out.Reneged {
		if b > 0 {
			reneged += b
			renegers++
		}
	}
	if reneged > 0 {
		rep.fail("%g bytes of sold guarantees reneged across %d requests", reneged, renegers)
	}
	degraded := int64(0)
	for _, lvl := range r.ctl.Health.Worst {
		if lvl > core.LevelOK {
			degraded++
		}
	}
	if degraded > 0 {
		rep.fail("control loop degraded: %s", r.ctl.Health.Summary())
	}
	return loopSteps, degraded + renegers
}

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

func sumSeconds(ds []time.Duration) float64 {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s.Seconds()
}

// fastest returns, position by position, the smallest of the runs'
// durations. The controller is deterministic, so the runs do the same
// work step for step and the smaller reading is the one a neighbour on
// the shared core interrupted less. Taken per step, it discards a slow
// stretch of a few seconds without discarding the run it fell in.
func fastest(runs [][]float64) []float64 {
	out := append([]float64(nil), runs[0]...)
	for _, run := range runs[1:] {
		for i := range out {
			out[i] = math.Min(out[i], run[i])
		}
	}
	return out
}

// loopUntraced is the end-to-end pass.
func loopUntraced(cfg runConfig) *report {
	rep := newReport(cfg.workload, cfg.seed, false)
	var setups, walls, rest []float64
	for k := 0; k < loopSetupRepeats; k++ {
		t0 := time.Now()
		s := genLoop(cfg.seed, nil)
		if _, err := core.New(s.Net, s.Requests, s.PretiumConfig()); err != nil {
			rep.fail("core.New: %v", err)
			return rep
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var sam, pc [][]float64
	var first *loopRun
	for k := 0; k < loopRuns; k++ {
		r := runLoopOnce(cfg.seed, nil, nil, 0)
		a, f := checkLoop(rep, r, nil)
		rep.count(a, f)
		if r.problem != "" {
			return rep
		}
		walls = append(walls, r.wallS)
		sam = append(sam, micros(r.ctl.Timings.SAM))
		pc = append(pc, micros(r.ctl.Timings.PC))
		rest = append(rest, r.wallS*1e6-sum(sam[k])-sum(pc[k]))
		if first == nil {
			first = r
			continue
		}
		if math.Float64bits(r.rep.Welfare) != math.Float64bits(first.rep.Welfare) {
			rep.fail("welfare differs between two runs of one seed: %v vs %v", first.rep.Welfare, r.rep.Welfare)
		}
		if len(sam[k]) != len(sam[0]) || len(pc[k]) != len(pc[0]) {
			rep.fail("two runs of one seed took %d and %d SAM steps, %d and %d PC steps", len(sam[0]), len(sam[k]), len(pc[0]), len(pc[k]))
			return rep
		}
	}
	checkReference(rep, first.rep.Welfare)

	samBest, pcBest := fastest(sam), fastest(pc)
	wall := (sum(samBest) + sum(pcBest) + median(rest)) / 1e6
	rep.set("setup_s", median(setups), len(setups))
	rep.setNote("ops_per_s", loopSteps/wall, loopRuns,
		"controller timesteps per second of Run(); each step's time is the faster of the runs")
	rep.setSummary("op_p50_us", "op_tail_us", summarize(samBest, 90), "one SAM timestep (Timings.SAM), faster of the runs")
	rep.setSummary("heavy_p50_us", "heavy_tail_us", summarize(pcBest, 90), "one PC window recompute (Timings.PC), faster of the runs")
	rep.setNote("welfare", first.rep.Welfare, loopRuns, "sim.Evaluate welfare, exact percentile costs")
	rep.Info["wall_s"] = wall
	for k, w := range walls {
		rep.Info[fmt.Sprintf("wall_s_run%d", k+1)] = w
	}
	rep.Info["requests"] = float64(len(first.setup.Requests))
	return rep
}

// loopTraced is the per-layer pass: one run with nothing switched on, as
// the baseline for the tracing overhead, then one with spans around
// every call and the controller's own telemetry (Config.Obs) enabled.
func loopTraced(cfg runConfig) (*report, []*tracer) {
	rep := newReport(cfg.workload, cfg.seed, true)
	plain := runLoopOnce(cfg.seed, nil, nil, 0)
	a, f := checkLoop(rep, plain, nil)
	rep.count(a, f)
	if plain.problem != "" {
		return rep, nil
	}

	tr := newTracer(cfg.workload, time.Now(), 64)
	rec := obs.NewRecorder(nil)
	r := runLoopOnce(cfg.seed, rec, tr, 1)
	a, f = checkLoop(rep, r, tr)
	rep.count(a, f)
	if r.problem != "" {
		return rep, nil
	}
	if math.Float64bits(r.rep.Welfare) != math.Float64bits(plain.rep.Welfare) {
		rep.fail("welfare differs between the plain and the traced run: %v vs %v", plain.rep.Welfare, r.rep.Welfare)
	}
	checkReference(rep, r.rep.Welfare)

	tm := r.ctl.Timings
	ra, samS, pcS := sumSeconds(tm.RA), sumSeconds(tm.SAM), sumSeconds(tm.PC)
	rep.set("core.new_ms", r.newMS, 1)
	rep.set("core.run_s", r.wallS, 1)
	rep.set("core.ra_us_p50", median(micros(tm.RA)), len(tm.RA))
	rep.set("core.ra_ms_sum", ra*1e3, len(tm.RA))
	rep.set("core.sam_s_sum", samS, len(tm.SAM))
	rep.set("core.pc_s_sum", pcS, len(tm.PC))
	rep.set("core.other_s", r.wallS-ra-samS-pcS, 1)
	degraded, worst := 0, core.LevelOK
	for _, lvl := range r.ctl.Health.Worst {
		if lvl > core.LevelOK {
			degraded++
		}
		if lvl > worst {
			worst = lvl
		}
	}
	rep.set("core.degraded_steps", float64(degraded), loopSteps)
	rep.set("core.worst_level", float64(worst), loopSteps)
	admitted := 0
	for _, ok := range r.ctl.Admitted {
		if ok {
			admitted++
		}
	}
	rep.set("core.admitted_share", float64(admitted)/float64(len(r.ctl.Admitted)), len(r.ctl.Admitted))
	rep.set("core.reneged_bytes", r.rep.RenegedBytes, len(r.out.Reneged))
	rep.set("sim.evaluate_ms", r.evalMS, 1)

	// The controller publishes its solver telemetry as counters named
	// sam.lp.* and pc.lp.* when Run finishes.
	m := rec.Metrics()
	c := func(name string) float64 { return float64(m.Counter(name).Value()) }
	samSolves := int(c("sam.lp.solves"))
	rep.set("lp.loop_sam_pivots", c("sam.lp.iterations"), samSolves)
	rep.set("lp.loop_sam_refactors", c("sam.lp.refactorizations"), samSolves)
	rep.set("lp.loop_sam_pricing_s", c("sam.lp.pricing_ns")/1e9, samSolves)
	rep.set("lp.loop_sam_ftran_s", c("sam.lp.ftran_ns")/1e9, samSolves)
	rep.set("lp.loop_sam_btran_s", c("sam.lp.btran_ns")/1e9, samSolves)
	rep.set("lp.loop_sam_refactor_s", c("sam.lp.refactor_ns")/1e9, samSolves)
	if samSolves > 0 {
		rep.set("lp.loop_sam_warm_share", c("sam.lp.warm_starts")/float64(samSolves), samSolves)
	}
	pcSolves := int(c("pc.lp.solves"))
	rep.set("lp.loop_pc_pivots", c("pc.lp.iterations"), pcSolves)
	rep.set("lp.loop_pc_phase_s", (c("pc.lp.pricing_ns")+c("pc.lp.ftran_ns")+c("pc.lp.btran_ns")+c("pc.lp.refactor_ns"))/1e9, pcSolves)
	rep.set("lp.limit_hits", c("sam.lp.time_budget_hits")+c("sam.lp.iter_limit_hits")+
		c("pc.lp.time_budget_hits")+c("pc.lp.iter_limit_hits"), samSolves+pcSolves)

	loopPriceComputer(rep, r, tr)

	rep.set("obs.trace_overhead_pct", 100*(r.wallS/plain.wallS-1), 1)
	rep.Info["wall_s_plain"] = plain.wallS
	setLayerSpans(rep, tr)
	return rep, []*tracer{tr}
}

// loopPriceComputer times the Price Computer by itself on the first day
// of the run just finished: the admitted requests whose windows touch
// steps 0–23, with the bytes they were delivered and the marginal price
// they accepted, which is what the controller's own history holds.
func loopPriceComputer(rep *report, r *loopRun, tr *tracer) {
	const day = 24
	var history []pricing.HistoryEntry
	for i, q := range r.setup.Requests {
		if !r.ctl.Admitted[i] || q.Start >= day || r.out.Delivered[i] <= 0 {
			continue
		}
		end := q.End
		if end > day-1 {
			end = day - 1
		}
		history = append(history, pricing.HistoryEntry{
			Routes: q.Routes, Start: q.Start, End: end,
			Bytes: r.out.Delivered[i], Lambda: r.ctl.AdmissionPrice[i],
		})
	}
	net := r.setup.Net
	capacity := make([][]float64, net.NumEdges())
	for e := range capacity {
		capacity[e] = make([]float64, day)
		for t := range capacity[e] {
			capacity[e][t] = net.Edge(graph.EdgeID(e)).Capacity
		}
	}
	pcfg := r.setup.PretiumConfig()
	var ms []float64
	var stats lp.SolveStats
	for k := 0; k < 5; k++ {
		ccfg := pricing.ComputerConfig{WindowLen: day, Cost: pcfg.Cost, MinPrice: pcfg.MinPrice, CostFloorFrac: 1}
		ccfg.Solver.Stats = &stats
		sp := tr.begin("pricing", "ComputePrices", int64(k))
		t0 := time.Now()
		_, err := pricing.ComputePrices(net, history, capacity, day, 0, ccfg)
		ms = append(ms, sinceMS(t0))
		tr.end(sp)
		if err != nil {
			rep.fail("pricing.ComputePrices on day one: %v", err)
			return
		}
	}
	rep.set("pricing.pc_ms_p50", median(ms), len(ms))
	rep.set("pricing.pc_pivots", float64(stats.Iterations)/float64(stats.Solves), stats.Solves)
}

// setLayerSpans reports, per layer, how many spans the tracers hold and
// the self time they add up to.
func setLayerSpans(rep *report, tracers ...*tracer) {
	total := map[string]layerTime{}
	for _, tr := range tracers {
		if tr == nil {
			continue
		}
		for layer, lt := range byLayer(tr.spans) {
			t := total[layer]
			t.Count += lt.Count
			t.Total += lt.Total
			t.Self += lt.Self
			total[layer] = t
		}
	}
	for _, layer := range spanLayers {
		if lt, ok := total[layer]; ok {
			rep.set(layer+".span_count", float64(lt.Count), int(lt.Count))
			rep.set(layer+".span_self_s", lt.Self.Seconds(), int(lt.Count))
		}
	}
}
