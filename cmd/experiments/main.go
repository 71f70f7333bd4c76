// Command experiments regenerates the tables and figures of the paper's
// evaluation (§6). Each experiment prints the series/rows the paper
// plots; EXPERIMENTS.md records paper-vs-measured values.
//
// Experiments run concurrently (bounded by exp.Workers) when more than
// one is requested; each experiment renders into its own buffer and the
// buffers are printed in the requested order, so the output is identical
// to a sequential run.
//
// Usage:
//
//	experiments -list
//	experiments -exp fig6 [-scale small|default] [-seed N]
//	experiments -exp all
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"pretium/internal/exp"
	"pretium/internal/obs"
)

// runCtx carries one experiment invocation's output sink, so concurrent
// experiments never interleave writes to stdout.
type runCtx struct {
	out  io.Writer
	plot bool
}

var experiments = map[string]func(rc *runCtx, sc exp.Scale, seed int64) error{
	"fig1": func(rc *runCtx, sc exp.Scale, seed int64) error {
		rc.printRows("Figure 1: CDF of 90th/10th percentile link-utilization ratio", exp.Figure1(sc, seed))
		return nil
	},
	"fig2": func(rc *runCtx, sc exp.Scale, seed int64) error {
		rc.printRows("Figure 2: four-node worked example (optimal welfare = 34)", exp.Figure2())
		return nil
	},
	"fig4": func(rc *runCtx, sc exp.Scale, seed int64) error {
		rc.printRows("Figure 4: price menus under two deadlines", exp.Figure4())
		return nil
	},
	"fig5": func(rc *runCtx, sc exp.Scale, seed int64) error {
		rc.printRows("Figure 5: top-10% mean (z_e) vs 95th percentile (y_e) correlation", exp.Figure5(sc, seed))
		return nil
	},
	"fig6": func(rc *runCtx, sc exp.Scale, seed int64) error {
		sweep, err := exp.LoadSweep(sc, loadFactors(), exp.AllSchemes(), seed)
		if err != nil {
			return err
		}
		rc.printRows("Figure 6: welfare relative to OPT vs load factor", exp.Figure6(sweep))
		rc.printRows("Figure 8: profit relative to |RegionOracle| vs load factor", exp.Figure8(sweep))
		rc.printRows("Figure 9: request completion fraction vs load factor", exp.Figure9(sweep))
		return nil
	},
	"fig7": func(rc *runCtx, sc exp.Scale, seed int64) error {
		a, b, c, err := exp.Figure7(sc, seed)
		if err != nil {
			return err
		}
		rc.printRows("Figure 7a: price vs utilization over time (busiest priced link, load 2)", a)
		rc.printRows("Figure 7b: value achieved rel. OPT by value-per-byte bucket", b)
		rc.printRows("Figure 7c: admission price vs request value (sampled)", c)
		return nil
	},
	"fig10": func(rc *runCtx, sc exp.Scale, seed int64) error {
		rows, err := exp.Figure10(sc, []string{exp.SchemeRegionOracle, exp.SchemeVCGLike, exp.SchemePretium}, seed)
		if err != nil {
			return err
		}
		rc.printRows("Figure 10: quantiles of per-link 90th-pct utilization, by scheme (load 1)", rows)
		return nil
	},
	"fig11": func(rc *runCtx, sc exp.Scale, seed int64) error {
		rows, err := exp.Figure11(sc, loadFactors(), seed)
		if err != nil {
			return err
		}
		rc.printRows("Figure 11: ablations — welfare rel. OPT (full vs NoMenu vs NoSAM)", rows)
		return nil
	},
	"fig12": func(rc *runCtx, sc exp.Scale, seed int64) error {
		rows, err := exp.Figure12(sc, []float64{0.5, 1, 1.5, 2, 3}, seed)
		if err != nil {
			return err
		}
		rc.printRows("Figure 12: welfare rel. OPT vs mean link cost (load 1)", rows)
		return nil
	},
	"fig13": func(rc *runCtx, sc exp.Scale, seed int64) error {
		f13, f14, err := exp.Figure13and14(sc, exp.ValueDistCases(), seed)
		if err != nil {
			return err
		}
		rc.printRows("Figure 13: welfare rel. OPT across value distributions (load 1)", f13)
		rc.printRows("Figure 14: Pretium profit rel. |RegionOracle| across value distributions", f14)
		return nil
	},
	"table4": func(rc *runCtx, sc exp.Scale, seed int64) error {
		rows, err := exp.Table4(sc, seed)
		if err != nil {
			return err
		}
		rc.printRows("Table 4: module runtimes (our solver, our scale — compare shape, not seconds)", rows)
		return nil
	},
	"incentives": func(rc *runCtx, sc exp.Scale, seed int64) error {
		res, err := exp.Incentives(sc, 10, seed)
		if err != nil {
			return err
		}
		rc.printRows("§5 incentives: single-request deadline misreports", res.Rows())
		return nil
	},
	"convergence": func(rc *runCtx, sc exp.Scale, seed int64) error {
		rows, err := exp.Convergence(sc, 6, seed)
		if err != nil {
			return err
		}
		rc.printRows("§4.4 price convergence over statistically identical days", rows)
		return nil
	},
	"chaos": func(rc *runCtx, sc exp.Scale, seed int64) error {
		rows, err := exp.ChaosSuite(sc, seed)
		if err != nil {
			return err
		}
		rc.printRows("Chaos gauntlet: welfare loss and degradation under injected faults (load 2)", rows)
		return nil
	},
	"churn": func(rc *runCtx, sc exp.Scale, seed int64) error {
		rows, err := exp.ChurnGauntlet(sc, seed)
		if err != nil {
			return err
		}
		rc.printRows("Churn gauntlet: preemption, refunds, and repair under topology churn (load 2)", rows)
		return nil
	},
}

// order fixes the -exp all execution sequence.
var order = []string{"fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig10", "fig11", "fig12", "fig13", "table4", "incentives", "convergence", "chaos", "churn"}

func loadFactors() []float64 { return []float64{0.5, 1, 2, 3} }

func (rc *runCtx) printRows(title string, rows []exp.Row) {
	fmt.Fprintf(rc.out, "\n== %s ==\n", title)
	for _, r := range rows {
		fmt.Fprintln(rc.out, "  "+r.Fmt())
	}
	if !rc.plot || len(rows) == 0 {
		return
	}
	// One bar chart per distinct column name.
	seen := map[string]bool{}
	for _, r := range rows {
		for _, c := range r.Columns {
			if seen[c.Name] {
				continue
			}
			seen[c.Name] = true
			if chart := exp.RenderBars(rows, c.Name, 48); chart != "" {
				fmt.Fprintln(rc.out)
				fmt.Fprint(rc.out, chart)
			}
		}
	}
}

func main() {
	var (
		name       = flag.String("exp", "", "experiment to run (see -list), or 'all'")
		scale      = flag.String("scale", "default", "experiment scale: small, default, medium (alias of default), or paper")
		seed       = flag.Int64("seed", 1, "experiment seed")
		list       = flag.Bool("list", false, "list experiments")
		plot       = flag.Bool("plot", false, "render ASCII bar charts under each table")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit (pprof format)")
		tracePath  = flag.String("trace", "", "write the Pretium controllers' JSONL event trace to this file (run one experiment for a deterministic stream)")
		metricsOut = flag.String("metrics", "", "write a JSON metrics snapshot (counters/gauges/histograms) to this file on exit")
	)
	flag.Parse()

	if *tracePath != "" || *metricsOut != "" {
		var tw io.Writer
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "trace: %v\n", err)
				os.Exit(2)
			}
			defer f.Close()
			tw = f
		}
		exp.Observe = obs.NewRecorder(tw)
		if *metricsOut != "" {
			defer func() {
				f, err := os.Create(*metricsOut)
				if err != nil {
					fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
					return
				}
				defer f.Close()
				if err := exp.Observe.Metrics().WriteJSON(f); err != nil {
					fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
				}
			}()
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if *list || *name == "" {
		names := make([]string, 0, len(experiments))
		for n := range experiments {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println("experiments:", strings.Join(names, " "), "| all")
		return
	}
	var sc exp.Scale
	switch *scale {
	case "small":
		sc = exp.Small()
	case "default":
		sc = exp.Default()
	case "medium":
		sc = exp.Medium()
	case "paper":
		sc = exp.Paper()
		fmt.Fprintln(os.Stderr, "warning: paper scale builds very large LPs; expect hours per experiment")
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	var names []string
	if *name == "all" {
		names = order
	} else {
		for _, n := range strings.Split(*name, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}
	for _, n := range names {
		if _, ok := experiments[n]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", n)
			os.Exit(2)
		}
	}

	// Fan the experiments out across the worker pool, buffering each
	// one's output, then flush the buffers in request order: the printed
	// output matches a sequential run byte for byte (aside from the
	// wall-clock stamps, which reflect the concurrent schedule).
	bufs := make([]bytes.Buffer, len(names))
	durs := make([]time.Duration, len(names))
	err := exp.ParallelFor(len(names), func(i int) error {
		start := time.Now()
		rc := &runCtx{out: &bufs[i], plot: *plot}
		if err := experiments[names[i]](rc, sc, *seed); err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
		durs[i] = time.Since(start)
		return nil
	})
	for i := range bufs {
		os.Stdout.Write(bufs[i].Bytes())
		if durs[i] > 0 {
			fmt.Printf("  [%s done in %.1fs]\n", names[i], durs[i].Seconds())
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
}
