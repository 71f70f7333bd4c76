package main

import (
	"fmt"
	"runtime"
	"time"

	"pretium/internal/lp"
	"pretium/internal/sched"
)

// samSolve is one timed solve and what the solver said about it.
type samSolve struct {
	buildMS, rebindMS, solveMS float64
	rebuilt                    bool
	res                        *sched.Result
	stats                      lp.SolveStats
	mallocs, allocBytes        uint64
}

func (s *samSolve) totalUS() float64 { return (s.buildMS + s.rebindMS + s.solveMS) * 1e3 }

// samOptions returns the solver options of the paper-scale path.
func samOptions() lp.Options {
	var o lp.Options
	optIn(&o, "Presolve", true)
	return o
}

// samCold builds the step-0 model from scratch and solves it with no
// basis. With detail set it also hangs solver telemetry on the solve and
// reads the allocator's counters around it.
func samCold(ins *sched.Instance, tr *tracer, detail bool) (*sched.Built, *samSolve, error) {
	s := &samSolve{}
	opts := samOptions()
	var before runtime.MemStats
	if detail {
		opts.Stats = &s.stats
		runtime.ReadMemStats(&before)
	}
	sp := tr.begin("sched", "Instance.Build", 0)
	t0 := time.Now()
	built, err := ins.Build()
	s.buildMS = sinceMS(t0)
	tr.end(sp)
	if err != nil {
		return nil, s, fmt.Errorf("Build: %w", err)
	}
	sp = tr.begin("sched", "Built.Solve", 0)
	t0 = time.Now()
	s.res, err = built.Solve(opts)
	s.solveMS = sinceMS(t0)
	tr.end(sp)
	if err != nil {
		return nil, s, fmt.Errorf("cold Solve: %w", err)
	}
	if detail {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		s.mallocs = after.Mallocs - before.Mallocs
		s.allocBytes = after.TotalAlloc - before.TotalAlloc
	}
	return built, s, nil
}

// samWarm moves built to the instance of a later step — in place when
// Rebind accepts it, by a fresh Build when it refuses — and re-solves
// from the previous step's basis.
func samWarm(built *sched.Built, ins *sched.Instance, step int, basis *lp.Basis, tr *tracer, detail bool) (*sched.Built, *samSolve, error) {
	s := &samSolve{}
	opts := samOptions()
	opts.WarmBasis = basis
	var before runtime.MemStats
	if detail {
		opts.Stats = &s.stats
		runtime.ReadMemStats(&before)
	}
	id := int64(step)
	sp := tr.begin("sched", "Built.Rebind", id)
	t0 := time.Now()
	err := built.Rebind(ins)
	s.rebindMS = sinceMS(t0)
	tr.end(sp)
	if err != nil {
		s.rebuilt = true
		sp = tr.begin("sched", "Instance.Build", id)
		t0 = time.Now()
		built, err = ins.Build()
		s.buildMS = sinceMS(t0)
		tr.end(sp)
		if err != nil {
			return nil, s, fmt.Errorf("step %d Build: %w", step, err)
		}
	}
	sp = tr.begin("sched", "Built.Solve", id)
	t0 = time.Now()
	s.res, err = built.Solve(opts)
	s.solveMS = sinceMS(t0)
	tr.end(sp)
	if err != nil {
		return nil, s, fmt.Errorf("step %d Solve: %w", step, err)
	}
	if detail {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		s.mallocs = after.Mallocs - before.Mallocs
	}
	return built, s, nil
}

// checkSolve is the output checker of one sam-paper solve: optimal and
// not suspect, no (edge, step) over capacity, every guarantee delivered.
// It reports whether the solve counts as failed.
func checkSolve(rep *report, step int, ins *sched.Instance, res *sched.Result) (failed bool) {
	bad := func(format string, args ...any) {
		rep.fail("step %d: "+format, append([]any{step}, args...)...)
		failed = true
	}
	if res.Status != lp.Optimal {
		bad("status %v", res.Status)
		return
	}
	if res.Suspect {
		bad("solution flagged suspect")
	}
	for e, row := range res.EdgeUsage {
		for t, u := range row {
			if ins.FixedUsage != nil {
				u += ins.FixedUsage[e][t]
			}
			if u > ins.Capacity[e][t]+1e-6 {
				bad("edge %d over capacity at t=%d: %v > %v", e, t, u, ins.Capacity[e][t])
				return
			}
		}
	}
	for d, got := range res.Delivered {
		if got < ins.Demands[d].MinBytes-1e-6 {
			bad("demand %d delivered %v of a guarantee of %v", d, got, ins.Demands[d].MinBytes)
			return
		}
	}
	return
}

// samSequence runs the workload's timed region once: build + cold solve
// of step 0, then samWarmSteps rolling steps. Instances are generated
// outside the timed calls.
func samSequence(rep *report, base *samBase, tr *tracer, detail bool) (cold *samSolve, warm []*samSolve, objectives []float64, ok bool) {
	ins0 := base.step(0)
	built, cold, err := samCold(ins0, tr, detail)
	if err != nil {
		rep.fail("%v", err)
		rep.count(1, 1)
		return nil, nil, nil, false
	}
	failed := checkSolve(rep, 0, ins0, cold.res)
	rep.count(1, b2i(failed))
	objectives = append(objectives, cold.res.Objective)
	basis := cold.res.Basis
	for t := 1; t <= samWarmSteps; t++ {
		ins := base.step(t)
		var s *samSolve
		built, s, err = samWarm(built, ins, t, basis, tr, detail)
		if err != nil {
			rep.fail("%v", err)
			rep.count(1, 1)
			return nil, nil, nil, false
		}
		failed := checkSolve(rep, t, ins, s.res)
		rep.count(1, b2i(failed))
		basis = s.res.Basis
		warm = append(warm, s)
		objectives = append(objectives, s.res.Objective)
	}
	rep.Series = objectives
	checkReference(rep, objectives...)
	return cold, warm, objectives, true
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// samSetupRepeats is how many times sam-paper times its 20 ms set-up.
const samSetupRepeats = 15

// samSetups times the workload's set-up — topology, demands, the step-0
// instance — samSetupRepeats times.
func samSetups() (*samBase, []float64) {
	var base *samBase
	var setups []float64
	for k := 0; k < samSetupRepeats; k++ {
		t0 := time.Now()
		base = genSAM(nil)
		base.step(0)
		setups = append(setups, time.Since(t0).Seconds())
	}
	return base, setups
}

// samUntraced is the end-to-end pass.
func samUntraced(cfg runConfig) *report {
	rep := newReport(cfg.workload, cfg.seed, false)
	base, setups := samSetups()

	// The cold solve is timed once. It is seventeen seconds of one core, a
	// second reading would be the run's single largest cost, and a slow
	// stretch of the shared host outlasts both readings anyway.
	cold, warm, objectives, ok := samSequence(rep, base, nil, false)
	if !ok {
		return rep
	}
	var warmUS []float64
	for _, s := range warm {
		warmUS = append(warmUS, s.totalUS())
	}
	wall := (cold.totalUS() + sum(warmUS)) / 1e6
	rep.set("setup_s", median(setups), len(setups))
	rep.setNote("ops_per_s", float64(1+samWarmSteps)/wall, 1, "SAM timesteps planned per second: cold solve + all warm steps")
	rep.setSummary("op_p50_us", "op_tail_us", summarize(warmUS, 90), "one warm SAM step, rebind + solve")
	rep.setSummary("heavy_p50_us", "heavy_tail_us", summarize([]float64{cold.totalUS()}, 90), "Build + cold Solve of step 0")
	rep.setNote("welfare", sum(objectives), len(objectives), "sum of the LP objectives of the cold and the warm steps")
	rep.Info["wall_s"] = wall
	rep.Info["cold_solve_s"] = cold.totalUS() / 1e6
	rep.Info["cold_pivots"] = float64(cold.res.Iterations)
	return rep
}

// samTraced is the per-layer pass: the timed region once plain, as the
// baseline for the tracing overhead, then once with spans, solver
// telemetry and allocator counters around every solve.
func samTraced(cfg runConfig) (*report, []*tracer) {
	rep := newReport(cfg.workload, cfg.seed, true)
	tr := newTracer(cfg.workload, time.Now(), 4*samWarmSteps)
	base := genSAM(tr)

	plainCold, plainWarm, _, ok := samSequence(rep, base, nil, false)
	if !ok {
		return rep, nil
	}
	cold, warm, _, ok := samSequence(rep, base, tr, true)
	if !ok {
		return rep, nil
	}

	total := func(c *samSolve, w []*samSolve) float64 {
		us := c.totalUS()
		for _, s := range w {
			us += s.totalUS()
		}
		return us
	}
	rep.set("obs.trace_overhead_pct", 100*(total(cold, warm)/total(plainCold, plainWarm)-1), 1)

	rep.set("graph.paperwan_build_ms", median(durations(tr.spans, "graph", "PaperWAN")), 1)
	rep.set("sched.build_ms", cold.buildMS, 1)
	rep.set("sched.cold_solve_s", (cold.buildMS+cold.solveMS)/1e3, 1)
	ph := cold.stats.Timings
	phases := float64(ph.PricingNs+ph.FtranNs+ph.BtranNs+ph.RefactorNs) / 1e9
	rep.set("lp.cold_pivots", float64(cold.res.Iterations), 1)
	rep.set("lp.cold_refactors", float64(cold.res.Refactors), 1)
	rep.set("lp.cold_pricing_s", float64(ph.PricingNs)/1e9, 1)
	rep.set("lp.cold_ftran_s", float64(ph.FtranNs)/1e9, 1)
	rep.set("lp.cold_btran_s", float64(ph.BtranNs)/1e9, 1)
	rep.set("lp.cold_refactor_s", float64(ph.RefactorNs)/1e9, 1)
	rep.set("lp.cold_other_s", cold.solveMS/1e3-phases, 1)
	rep.set("lp.cold_alloc_mb", float64(cold.allocBytes)/(1<<20), 1)
	rep.set("lp.cold_allocs", float64(cold.mallocs), 1)

	n := len(warm)
	var rebind, solve, pivots, pricing, ftran, btran, other, allocs []float64
	rebuilt, pivotsTotal, refactors, warmStarts, allocsOut := 0, 0, 0, 0, 0
	for _, s := range warm {
		rebind = append(rebind, s.rebindMS)
		solve = append(solve, s.solveMS)
		pivots = append(pivots, float64(s.res.Iterations))
		t := s.stats.Timings
		pricing = append(pricing, float64(t.PricingNs)/1e6)
		ftran = append(ftran, float64(t.FtranNs)/1e6)
		btran = append(btran, float64(t.BtranNs)/1e6)
		other = append(other, s.solveMS-float64(t.PricingNs+t.FtranNs+t.BtranNs+t.RefactorNs)/1e6)
		allocs = append(allocs, float64(s.mallocs))
		if s.rebuilt {
			rebuilt++
		}
		pivotsTotal += s.res.Iterations
		refactors += s.res.Refactors
		warmStarts += s.stats.WarmStarts
		allocsOut += len(s.res.Allocs)
	}
	rep.set("sched.rebind_ms_p50", median(rebind), n)
	rep.set("sched.rebuild_share", float64(rebuilt)/float64(n), n)
	rep.set("sched.solve_warm_ms_p50", median(solve), n)
	rep.set("sched.allocs_out_mean", float64(allocsOut)/float64(n), n)
	rep.set("lp.warm_pivots_p50", median(pivots), n)
	rep.set("lp.warm_pivots_total", float64(pivotsTotal), n)
	rep.set("lp.warm_refactors_total", float64(refactors), n)
	rep.set("lp.warm_pricing_ms_p50", median(pricing), n)
	rep.set("lp.warm_ftran_ms_p50", median(ftran), n)
	rep.set("lp.warm_btran_ms_p50", median(btran), n)
	rep.set("lp.warm_other_ms_p50", median(other), n)
	rep.set("lp.warm_allocs_p50", median(allocs), n)
	rep.set("lp.warm_start_share", float64(warmStarts)/float64(n), n)

	// One real rolling step (see samBase.rolling), from the cold solve's
	// model and basis, as the controller's incremental path would take it.
	roll := base.rolling()
	coldBuilt, err := base.step(0).Build()
	if err != nil {
		rep.fail("Build: %v", err)
		return rep, nil
	}
	_, rs, err := samWarm(coldBuilt, roll, samWarmSteps+1, cold.res.Basis, tr, true)
	if err != nil {
		rep.fail("rolling step: %v", err)
		rep.count(1, 1)
	} else {
		rep.count(1, b2i(checkSolve(rep, samWarmSteps+1, roll, rs.res)))
		rep.set("sched.rolling_step_s", rs.totalUS()/1e6, 1)
		rep.set("lp.rolling_pivots", float64(rs.res.Iterations), 1)
		rep.set("lp.rolling_warm_start_share", float64(rs.stats.WarmStarts), 1)
	}

	// The LP-free fallback on the same step-0 instance, for the roadmap's
	// LP-free scheduler item; no end-to-end metric moves with it on a
	// healthy run.
	ins0 := base.step(0)
	sp := tr.begin("sched", "Instance.SolveGreedy", 0)
	t0 := time.Now()
	greedy, err := ins0.SolveGreedy()
	rep.set("sched.greedy_ms", sinceMS(t0), 1)
	tr.end(sp)
	if err != nil {
		rep.fail("SolveGreedy: %v", err)
	} else {
		rep.set("sched.greedy_objective_ratio", greedy.Objective/cold.res.Objective, 1)
	}
	setLayerSpans(rep, tr)
	return rep, []*tracer{tr}
}
