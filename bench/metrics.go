package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// metricSpec declares one metric. The tables below are the benchmark's
// side of BENCHMARK.json; a unit test holds the two together.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline median it may worsen by
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them from its untraced pass; README.md has the table of
// what each name means on each workload.
//
// Timing bounds are 0.25, the widest the contract allows, not the 0.10
// one would like: the shared two-core box has a slow state a third
// slower than its fast one that comes and goes by the minute, and even
// inside the fast state ten runs spread by 6% (README.md, "Noise").
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"op_p50_us", "us", lower, 0.25},
	{"op_tail_us", "us", lower, 0.25},
	{"heavy_p50_us", "us", lower, 0.25},
	{"heavy_tail_us", "us", lower, 0.25},
	{"welfare", "value", higher, 0.05},
	{"peak_rss_mb", "MB", lower, 0.15},
}

// spanLayers are the modules the benchmark calls into, in the order the
// span tables print. lp is absent: it is reached only through sched, so
// its numbers come from the solver's own telemetry, not from spans.
var spanLayers = []string{"exp", "graph", "traffic", "pricing", "sched", "serve", "core", "sim"}

// perLayer lists the single-layer metrics of the traced pass. A workload
// that does not exercise a layer reports that layer's metrics as 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	specs := []metricSpec{
		{Name: "graph.ksp_us_p50", Unit: "us", Better: lower},
		{Name: "graph.ksp_distinct_pair_share", Unit: "share", Better: lower},
		{Name: "graph.paperwan_build_ms", Unit: "ms", Better: lower},

		{Name: "traffic.generate_ms", Unit: "ms", Better: lower},
		{Name: "traffic.synthesize_ms", Unit: "ms", Better: lower},
		{Name: "traffic.requests", Unit: "count", Better: higher},

		{Name: "pricing.quote_ns_p50", Unit: "ns", Better: lower},
		{Name: "pricing.quote_ns_p99", Unit: "ns", Better: lower},
		{Name: "pricing.admit_ns_p50", Unit: "ns", Better: lower},
		{Name: "pricing.admit_ns_p99", Unit: "ns", Better: lower},
		{Name: "pricing.quote_allocs_per_op", Unit: "count", Better: lower},
		{Name: "pricing.admit_allocs_per_op", Unit: "count", Better: lower},
		{Name: "pricing.admit_bytes_per_op", Unit: "B", Better: lower},
		{Name: "pricing.menu_segments_mean", Unit: "count", Better: lower},
		{Name: "pricing.accept_share", Unit: "share", Better: higher},
		{Name: "pricing.clone_us_p50", Unit: "us", Better: lower},
		{Name: "pricing.pc_ms_p50", Unit: "ms", Better: lower},
		{Name: "pricing.pc_pivots", Unit: "count", Better: lower},

		{Name: "sched.build_ms", Unit: "ms", Better: lower},
		{Name: "sched.cold_solve_s", Unit: "s", Better: lower},
		{Name: "sched.rebind_ms_p50", Unit: "ms", Better: lower},
		{Name: "sched.rebuild_share", Unit: "share", Better: lower},
		{Name: "sched.solve_warm_ms_p50", Unit: "ms", Better: lower},
		{Name: "sched.allocs_out_mean", Unit: "count", Better: lower},
		{Name: "sched.rolling_step_s", Unit: "s", Better: lower},
		{Name: "sched.greedy_ms", Unit: "ms", Better: lower},
		{Name: "sched.greedy_objective_ratio", Unit: "ratio", Better: higher},

		{Name: "lp.cold_pivots", Unit: "count", Better: lower},
		{Name: "lp.cold_refactors", Unit: "count", Better: lower},
		{Name: "lp.cold_pricing_s", Unit: "s", Better: lower},
		{Name: "lp.cold_ftran_s", Unit: "s", Better: lower},
		{Name: "lp.cold_btran_s", Unit: "s", Better: lower},
		{Name: "lp.cold_refactor_s", Unit: "s", Better: lower},
		{Name: "lp.cold_other_s", Unit: "s", Better: lower},
		{Name: "lp.cold_alloc_mb", Unit: "MB", Better: lower},
		{Name: "lp.cold_allocs", Unit: "count", Better: lower},
		{Name: "lp.warm_pivots_p50", Unit: "count", Better: lower},
		{Name: "lp.warm_pivots_total", Unit: "count", Better: lower},
		{Name: "lp.warm_refactors_total", Unit: "count", Better: lower},
		{Name: "lp.warm_pricing_ms_p50", Unit: "ms", Better: lower},
		{Name: "lp.warm_ftran_ms_p50", Unit: "ms", Better: lower},
		{Name: "lp.warm_btran_ms_p50", Unit: "ms", Better: lower},
		{Name: "lp.warm_other_ms_p50", Unit: "ms", Better: lower},
		{Name: "lp.warm_allocs_p50", Unit: "count", Better: lower},
		{Name: "lp.warm_start_share", Unit: "share", Better: higher},
		{Name: "lp.rolling_pivots", Unit: "count", Better: lower},
		{Name: "lp.rolling_warm_start_share", Unit: "share", Better: higher},
		{Name: "lp.loop_sam_pivots", Unit: "count", Better: lower},
		{Name: "lp.loop_sam_refactors", Unit: "count", Better: lower},
		{Name: "lp.loop_sam_pricing_s", Unit: "s", Better: lower},
		{Name: "lp.loop_sam_ftran_s", Unit: "s", Better: lower},
		{Name: "lp.loop_sam_btran_s", Unit: "s", Better: lower},
		{Name: "lp.loop_sam_refactor_s", Unit: "s", Better: lower},
		{Name: "lp.loop_sam_warm_share", Unit: "share", Better: higher},
		{Name: "lp.loop_pc_pivots", Unit: "count", Better: lower},
		{Name: "lp.loop_pc_phase_s", Unit: "s", Better: lower},
		{Name: "lp.limit_hits", Unit: "count", Better: lower},

		{Name: "serve.quote_ns_p50_1w", Unit: "ns", Better: lower},
		{Name: "serve.admit_ns_p50_1w", Unit: "ns", Better: lower},
		{Name: "serve.admit_ns_p99_2w", Unit: "ns", Better: lower},
		{Name: "serve.admit_ns_p999_2w", Unit: "ns", Better: lower},
		{Name: "serve.ops_per_s_1w", Unit: "1/s", Better: higher},
		{Name: "serve.scale_2w_over_1w", Unit: "ratio", Better: higher},
		{Name: "serve.lock_baseline_ops_per_s", Unit: "1/s", Better: higher},
		{Name: "serve.vs_lock_baseline", Unit: "ratio", Better: higher},
		{Name: "serve.publish_us_p50", Unit: "us", Better: lower},
		{Name: "serve.publishes", Unit: "count", Better: higher},
		{Name: "serve.quotes", Unit: "count", Better: higher},
		{Name: "serve.admits", Unit: "count", Better: higher},
		{Name: "serve.declines", Unit: "count", Better: lower},
		{Name: "serve.allocs_per_quote", Unit: "count", Better: lower},
		{Name: "serve.allocs_per_admit", Unit: "count", Better: lower},
		{Name: "serve.handler_us_p50", Unit: "us", Better: lower},
		{Name: "serve.http_overhead_us_p50", Unit: "us", Better: lower},
		{Name: "serve.http_allocs_per_req", Unit: "count", Better: lower},
		{Name: "serve.http_bytes_in_mean", Unit: "B", Better: lower},
		{Name: "serve.http_bytes_out_mean", Unit: "B", Better: lower},

		{Name: "core.new_ms", Unit: "ms", Better: lower},
		{Name: "core.run_s", Unit: "s", Better: lower},
		{Name: "core.ra_us_p50", Unit: "us", Better: lower},
		{Name: "core.ra_ms_sum", Unit: "ms", Better: lower},
		{Name: "core.sam_s_sum", Unit: "s", Better: lower},
		{Name: "core.pc_s_sum", Unit: "s", Better: lower},
		{Name: "core.other_s", Unit: "s", Better: lower},
		{Name: "core.degraded_steps", Unit: "count", Better: lower},
		{Name: "core.worst_level", Unit: "level", Better: lower},
		{Name: "core.admitted_share", Unit: "share", Better: higher},
		{Name: "core.reneged_bytes", Unit: "value", Better: lower},

		{Name: "sim.evaluate_ms", Unit: "ms", Better: lower},
		{Name: "obs.trace_overhead_pct", Unit: "%", Better: lower},
	}
	for _, l := range spanLayers {
		specs = append(specs,
			metricSpec{Name: l + ".span_count", Unit: "count", Better: lower},
			metricSpec{Name: l + ".span_self_s", Unit: "s", Better: lower})
	}
	return specs
}

// value is one measured metric with the number of samples behind it.
type value struct {
	V float64 `json:"value"`
	N int     `json:"n"`
	// Note says which percentile a tail metric is, or what the value
	// stands for on this workload.
	Note string `json:"note,omitempty"`
}

// report is what one pass of one workload produced.
type report struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Values    map[string]value `json:"values"`
	// Info carries numbers worth printing that are not metrics of the
	// contract (the untraced wall clock, accept share of the stream).
	Info map[string]float64 `json:"info,omitempty"`
	// Series carries the values reference.json is recorded from.
	Series   []float64 `json:"series,omitempty"`
	Problems []string  `json:"problems,omitempty"`
	OptIns   []string  `json:"opt_ins"`
}

func newReport(workload string, seed int64, traced bool) *report {
	return &report{Workload: workload, Seed: seed, Traced: traced, Correct: true,
		Values: map[string]value{}, Info: map[string]float64{}}
}

func (r *report) set(name string, v float64, n int) { r.Values[name] = value{V: v, N: n} }

func (r *report) setNote(name string, v float64, n int, note string) {
	r.Values[name] = value{V: v, N: n, Note: note}
}

// setSummary reports a timing's median and tail under a pair of names.
func (r *report) setSummary(p50Name, tailName string, s summary, what string) {
	r.setNote(p50Name, s.P50, s.N, what)
	r.setNote(tailName, s.Tail, s.N, fmt.Sprintf("%s, p%g", what, s.TailPct))
}

// fail records a failed output check. The pass still prints its result,
// marked incorrect, and the process exits non-zero.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// count adds attempted operations and how many of them failed. A failed
// operation counts as missing every latency bound; none is dropped from
// the tally to make a percentile look better.
func (r *report) count(attempted, failed int64) {
	r.Attempted += attempted
	r.Failed += failed
}

// specs returns the metric table the pass reports from.
func (r *report) specs() []metricSpec {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// validate checks that the pass set nothing outside its table and that
// every value is a finite number. An untraced pass must have set every
// end-to-end metric to something other than zero.
func (r *report) validate() {
	known := map[string]bool{}
	for _, s := range r.specs() {
		known[s.Name] = true
		v, ok := r.Values[s.Name]
		if !r.Traced && (!ok || v.V == 0) {
			r.fail("end-to-end metric %s is missing or zero", s.Name)
		}
		if math.IsNaN(v.V) || math.IsInf(v.V, 0) {
			r.fail("metric %s is not finite", s.Name)
			r.Values[s.Name] = value{N: v.N}
		}
	}
	for name := range r.Values {
		if !known[name] {
			r.fail("metric %s is not in the contract", name)
			delete(r.Values, name)
		}
	}
	if r.Attempted < 1 {
		r.fail("no operation was attempted")
		r.Attempted = 1
	}
}

// printTable writes the pass's metrics by name with unit and sample
// count. Per-layer metrics a workload leaves at zero are skipped.
func (r *report) printTable(w io.Writer) {
	pass := "end to end, tracing off"
	if r.Traced {
		pass = "per layer, tracing on"
	}
	fmt.Fprintf(w, "%s seed %d (%s)\n", r.Workload, r.Seed, pass)
	for _, s := range r.specs() {
		v, ok := r.Values[s.Name]
		if !ok || (r.Traced && v.V == 0 && v.N == 0) {
			continue
		}
		note := ""
		if v.Note != "" {
			note = "  # " + v.Note
		}
		fmt.Fprintf(w, "  %-32s %16.6g %-6s n=%d%s\n", s.Name, v.V, s.Unit, v.N, note)
	}
	for _, k := range sortedKeys(r.Info) {
		fmt.Fprintf(w, "  (%s %.6g)\n", k, r.Info[k])
	}
	fmt.Fprintf(w, "  ops_attempted %d  ops_failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	if len(r.OptIns) > 0 {
		fmt.Fprintf(w, "  opt-ins: %s\n", strings.Join(r.OptIns, " "))
	}
}

// contractLine renders the one-line result the driver parses: exactly
// the keys correct, attempted, failed and metrics, every metric of the
// pass's table present.
func (r *report) contractLine() string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]metric{}}
	for _, s := range r.specs() {
		out.Metrics[s.Name] = metric{r.Values[s.Name].V, s.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only non-finite floats can fail, and validate removed them
	}
	return string(b)
}
