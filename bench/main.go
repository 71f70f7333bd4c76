// Command bench is the repository's benchmark: one program that times
// the control loop, the paper-scale SAM solve and the admission service
// end to end and layer by layer, and checks their outputs. README.md in
// this directory says why each workload and metric exists.
//
// Two ways of running it:
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//
// runs one pass of one workload in this process and prints, as the last
// line of standard output, the result object BENCHMARK.json's contract
// asks for (--trace 0: the end-to-end metrics; --trace 1: the per-layer
// metrics). Without --trace,
//
//	bash bench/run.sh [-workload W[,W]] [-seed N] [-repeat N | -selfcheck]
//
// runs a whole set: every selected workload, each pass in a fresh child
// process of this binary, a table of every metric, and a result file.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloadSpec names a workload and says why it exists; BENCHMARK.json
// carries the same two fields.
type workloadSpec struct {
	Name, Why string
}

var workloads = []workloadSpec{
	{"loop-wan16", "the whole controller as it ships (RA, SAM build, LP, plan install, PC duals) on a 16-node WAN over 96 steps: m < 4096, so the default explicit-row path, eta-file kernel and hybrid pricing do the work"},
	{"sam-paper", "one SAM problem at the paper's size (106 nodes, 226 edges, T=288, 400 demands), cold then 48 warm steps: presolve, Forrest-Tomlin and devex do the work; pricing and serve do none"},
	{"admit-paper", "the admission service called in process by 2 closed-loop callers at the paper's topology, 9 quotes to 1 admit: pricing.Quoter and the sequencer do the work; lp, sched and core do none"},
	{"admit-http", "the same service and stream behind serve.Handler on a loopback socket: wire decode and KShortestPaths per request do most of the work, pricing little"},
}

// defaultSeconds is BENCHMARK.json's run_seconds: how long the two
// duration-driven workloads (admit-*) measure. The two fixed-work
// workloads run their constant amount of work whatever it is set to.
const defaultSeconds = 16

// runConfig is one pass of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// spans, when set, is where a traced pass writes its spans.
	spans string
}

func main() {
	var (
		workload  = flag.String("workload", "", "workloads to run, comma-separated (default: all four)")
		seed      = flag.Int64("seed", 1, "seed the workload generators draw from")
		seconds   = flag.Float64("seconds", defaultSeconds, "how long the duration-driven workloads measure")
		trace     = flag.String("trace", "", "0: untraced pass; 1: traced pass; a file name: traced pass, spans written there")
		repeat    = flag.Int("repeat", 0, "run this many sets (seeds seed, seed+1, …) and print median and quartiles per metric")
		selfcheck = flag.Bool("selfcheck", false, "run two interleaved groups of sets and fail if an end-to-end median differs by more than its bound")
		out       = flag.String("out", filepath.Join(".bench_build", "bench_result.json"), "where a set's result file goes")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal("unexpected argument %q", flag.Arg(0))
	}
	selected, err := selectWorkloads(*workload)
	if err != nil {
		fatal("%v", err)
	}
	if *seconds <= 0 {
		fatal("-seconds must be positive")
	}

	if *trace != "" && len(selected) == 1 && *repeat == 0 && !*selfcheck {
		cfg := runConfig{workload: selected[0], seed: *seed, seconds: *seconds, traced: *trace != "0"}
		if *trace != "0" && *trace != "1" {
			cfg.spans = *trace
		}
		os.Exit(runPass(cfg))
	}

	s := &suite{workloads: selected, seed: *seed, seconds: *seconds, spans: *trace, out: *out}
	if *trace == "0" || *trace == "1" {
		s.spans = ""
	}
	switch {
	case *selfcheck:
		n := *repeat
		if n == 0 {
			n = 3
		}
		os.Exit(s.selfcheck(n))
	case *repeat > 0:
		os.Exit(s.repeat(*repeat))
	default:
		os.Exit(s.fullSet())
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func selectWorkloads(list string) ([]string, error) {
	if list == "" {
		var all []string
		for _, w := range workloads {
			all = append(all, w.Name)
		}
		return all, nil
	}
	var out []string
	for _, name := range strings.Split(list, ",") {
		known := false
		for _, w := range workloads {
			known = known || w.Name == name
		}
		if !known {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, name)
	}
	return out, nil
}

// ---- one pass, in this process ----

const detailPrefix = "detail: "

// runPass runs one pass of one workload and prints its table, a detail
// line for a parent process, and the contract's result line. It returns
// the process's exit code: 0 only when every output check passed.
func runPass(cfg runConfig) int {
	// Two cores at most, so that numbers from a larger machine stay
	// comparable with the two-core box the reference numbers come from.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	var rep *report
	var tracers []*tracer
	switch {
	case cfg.workload == "loop-wan16" && cfg.traced:
		rep, tracers = loopTraced(cfg)
	case cfg.workload == "loop-wan16":
		rep = loopUntraced(cfg)
	case cfg.workload == "sam-paper" && cfg.traced:
		rep, tracers = samTraced(cfg)
	case cfg.workload == "sam-paper":
		rep = samUntraced(cfg)
	case cfg.traced:
		rep, tracers = admitTraced(cfg, cfg.workload == "admit-http")
	default:
		rep = admitUntraced(cfg, cfg.workload == "admit-http")
	}
	if !cfg.traced {
		rep.set("peak_rss_mb", peakRSSMB(), 1)
	}
	if cfg.spans != "" && len(tracers) > 0 {
		if err := writeSpans(cfg.spans, tracers...); err != nil {
			rep.fail("writing spans: %v", err)
		}
	}
	rep.OptIns = appliedOptIns()
	rep.validate()

	rep.printTable(os.Stdout)
	detail, err := json.Marshal(rep)
	if err != nil {
		fatal("encoding the detail line: %v", err)
	}
	fmt.Println(detailPrefix + string(detail))
	fmt.Println(rep.contractLine())
	if !rep.Correct {
		return 1
	}
	return 0
}

// peakRSSMB is the high-water mark of this process's resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func sinceMS(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// ---- sets of passes, each in a child process ----

type suite struct {
	workloads []string
	seed      int64
	seconds   float64
	spans     string
	out       string
}

// child runs one pass in a fresh process of this binary — so that peak
// memory and garbage-collector state belong to that pass alone — echoes
// its table, and returns its report.
func (s *suite) child(workload string, seed int64, traced bool, quiet bool) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
		if s.spans != "" {
			ext := filepath.Ext(s.spans)
			trace = strings.TrimSuffix(s.spans, ext) + "." + workload + ext
		}
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(s.seconds), "-trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // waits for the child to have ended
	var rep *report
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, detailPrefix):
			rep = &report{}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, detailPrefix)), rep); err != nil {
				return nil, fmt.Errorf("%s: bad detail line: %w", workload, err)
			}
		case strings.HasPrefix(line, "{"): // the contract line; the detail line says more
		case !quiet:
			fmt.Println(line)
		}
	}
	if rep == nil {
		return nil, fmt.Errorf("%s: child printed no result (%v)", workload, runErr)
	}
	return rep, nil
}

// environment is what a result file records about where it was made.
type environment struct {
	Commit     string             `json:"commit"`
	GoVersion  string             `json:"go_version"`
	CPU        string             `json:"cpu_model"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Parameters map[string]float64 `json:"workload_parameters"`
	OptIns     []string           `json:"opt_ins"`
	Transport  string             `json:"http_transport"`
}

func (s *suite) environment(reports []*report) environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(), CPU: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: min(2, runtime.NumCPU()),
		Seed: s.seed, Seconds: s.seconds,
		Parameters: map[string]float64{
			"loop.base_seed": loopBaseSeed, "loop.steps": loopSteps, "loop.value_jitter": loopValueJitter, "loop.runs": loopRuns,
			"sam.base_seed": samBaseSeed, "sam.horizon": samHorizon, "sam.demands": samDemands,
			"sam.warm_steps": samWarmSteps, "sam.value_swing": samValueSwing, "sam.rolling_capacity_jitter": samCapJitter,
			"admit.base_seed": admitBaseSeed, "admit.horizon": admitHorizon, "admit.base_price": admitBasePrice, "admit.routes": admitRoutes,
			"admit.slices": admitSlices, "admit.callers": admitWorkers, "admit.admit_every": admitEvery, "admit.publish_every": admitPublishEvery,
			"admit.prefix": admitPrefix, "admit.sample_every": admitSampleEvery, "admit.warmup_s": admitWarmup.Seconds(),
		},
		Transport: "admit-http traffic crossed the loopback interface inside one process, not a link",
	}
	// The driver's checkout is not a git repository; "unknown" stays then.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(out) > 0 {
			env.Commit += "+uncommitted"
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	seen := map[string]bool{}
	for _, r := range reports {
		for _, o := range r.OptIns {
			if !seen[o] {
				seen[o] = true
				env.OptIns = append(env.OptIns, o)
			}
		}
	}
	sort.Strings(env.OptIns)
	return env
}

func (s *suite) writeResult(reports []*report) error {
	doc := struct {
		Environment environment `json:"environment"`
		Runs        []*report   `json:"runs"`
	}{s.environment(reports), reports}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(s.out), 0o755); err != nil {
		return err
	}
	return os.WriteFile(s.out, append(b, '\n'), 0o644)
}

// fullSet runs, for every selected workload, the untraced and then the
// traced pass, and writes the result file.
func (s *suite) fullSet() int {
	var reports []*report
	code := 0
	for _, w := range s.workloads {
		for _, traced := range []bool{false, true} {
			rep, err := s.child(w, s.seed, traced, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
				continue
			}
			reports = append(reports, rep)
			if !rep.Correct || rep.Failed > 0 {
				code = 1
			}
		}
	}
	if err := s.writeResult(reports); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("result file: %s\n", s.out)
	return code
}

// sets runs n untraced sets on seeds seed, seed+1, … and returns, per
// workload and end-to-end metric, the n values.
func (s *suite) sets(n int, label string) (map[string]map[string][]float64, []*report, bool) {
	values := map[string]map[string][]float64{}
	var reports []*report
	ok := true
	for i := 0; i < n; i++ {
		for _, w := range s.workloads {
			rep, err := s.child(w, s.seed+int64(i), false, true)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				ok = false
				continue
			}
			fmt.Printf("%s%s seed %d: attempted %d failed %d correct %v\n", label, w, rep.Seed, rep.Attempted, rep.Failed, rep.Correct)
			ok = ok && rep.Correct && rep.Failed == 0
			reports = append(reports, rep)
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for _, spec := range endToEnd {
				values[w][spec.Name] = append(values[w][spec.Name], rep.Values[spec.Name].V)
			}
		}
	}
	return values, reports, ok
}

func printSpreads(workloads []string, values map[string]map[string][]float64) {
	fmt.Printf("%-12s %-14s %14s %14s %14s %4s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "n", "spread", "bound")
	for _, w := range workloads {
		for _, spec := range endToEnd {
			xs := values[w][spec.Name]
			q1, q2, q3 := quartiles(xs)
			fmt.Printf("%-12s %-14s %14.6g %14.6g %14.6g %4d %7.2f%% %5.0f%%\n",
				w, spec.Name, q1, q2, q3, len(xs), 100*spread(xs), 100*spec.Bound)
		}
	}
}

// repeat runs n sets and prints each metric's median, quartiles and
// count: the evidence for how steady the benchmark is.
func (s *suite) repeat(n int) int {
	values, reports, ok := s.sets(n, "")
	printSpreads(s.workloads, values)
	if err := s.writeResult(reports); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// worse reports by what share of a the median b is worse than a.
func worse(spec metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if spec.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfcheck runs two groups of n sets of this same binary, alternating
// between them, and fails if any end-to-end metric's medians are further
// apart than its bound — in which case the bound is tighter than the
// benchmark can resolve. It is also the tool an A/B comparison of two
// builds starts from.
func (s *suite) selfcheck(n int) int {
	a := map[string]map[string][]float64{}
	b := map[string]map[string][]float64{}
	ok := true
	for i := 0; i < n; i++ {
		for gi, group := range []map[string]map[string][]float64{a, b} {
			one := *s
			one.seed = s.seed + int64(i)
			vals, _, good := one.sets(1, fmt.Sprintf("group %c ", 'A'+gi))
			ok = ok && good
			for w, ms := range vals {
				if group[w] == nil {
					group[w] = map[string][]float64{}
				}
				for m, xs := range ms {
					group[w][m] = append(group[w][m], xs...)
				}
			}
		}
	}
	fmt.Printf("%-12s %-14s %14s %14s %8s %6s\n", "workload", "metric", "median A", "median B", "apart", "bound")
	for _, w := range s.workloads {
		for _, spec := range endToEnd {
			ma, mb := median(a[w][spec.Name]), median(b[w][spec.Name])
			apart := max(worse(spec, ma, mb), worse(spec, mb, ma))
			verdict := ""
			if apart > spec.Bound {
				verdict = "  OUTSIDE ITS BOUND"
				ok = false
			}
			fmt.Printf("%-12s %-14s %14.6g %14.6g %7.2f%% %5.0f%%%s\n", w, spec.Name, ma, mb, 100*apart, 100*spec.Bound, verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}
