package main

// These tests cover the benchmark's own arithmetic and its agreement
// with BENCHMARK.json. None of them runs a workload.

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestOptIn(t *testing.T) {
	type options struct {
		Presolve bool
		Shards   int
		hidden   bool
	}
	var o options
	if !optIn(&o, "Presolve", true) || !o.Presolve {
		t.Errorf("present field: want set and reported, got %+v", o)
	}
	if !optIn(&o, "Shards", 8) || o.Shards != 8 {
		t.Errorf("present int field: want 8, got %+v", o)
	}
	before := o
	if optIn(&o, "ImplicitBounds", true) {
		t.Error("absent field reported as applied")
	}
	if optIn(&o, "hidden", true) {
		t.Error("unexported field reported as applied")
	}
	if optIn(&o, "Shards", "eight") {
		t.Error("value of the wrong type reported as applied")
	}
	if o != before {
		t.Errorf("a refused opt-in changed the struct: %+v -> %+v", before, o)
	}
	got := strings.Join(appliedOptIns(), " ")
	for _, want := range []string{"main.options.Presolve=applied", "main.options.ImplicitBounds=absent"} {
		if !strings.Contains(got, want) {
			t.Errorf("appliedOptIns() = %q, want it to contain %q", got, want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		limit float64
		want  float64
	}{
		{3, 90, 50},       // nothing leaves ten samples beyond it
		{39, 90, 50},      // p75 would leave 9.75
		{40, 90, 75},      // p75 leaves exactly ten
		{48, 90, 75},      // sam-paper's warm steps
		{96, 90, 75},      // one run of loop-wan16: p90 would leave 9.6
		{100, 90, 90},     // p90 leaves exactly ten
		{100_000, 90, 90}, // capped by the caller's limit
		{999, 99.9, 90},
		{1000, 99.9, 99},
		{10_000, 99.9, 99.9},
	} {
		if got := tailPercentile(c.n, c.limit); got != c.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.limit, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i) // descending: summarize must sort
	}
	s := summarize(xs, 90)
	if s.N != 101 || s.P50 != 50 || s.TailPct != 90 || s.Tail != 90 {
		t.Errorf("summarize(0..100) = %+v, want median 50 and p90 = 90 over 101 samples", s)
	}
	if s := summarize(nil, 90); s.N != 0 || s.P50 != 0 || s.Tail != 0 {
		t.Errorf("summarize(nil) = %+v, want zeros", s)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4),
// whose values for these inputs are written out below.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 3, 8, 2, 9, 4, 7, 5, 6})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %g %g %g, want 1 2 4", q1, q2, q3)
	}
	if got := spread([]float64{10, 1, 3, 8, 2, 9, 4, 7, 5, 6}); got != 1 {
		t.Errorf("spread(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// A 100 ns core span with two pricing children of 30 and 20 ns, the
	// first of which has a 10 ns graph child; then a lone 5 ns core span.
	spans := []span{
		{Layer: "core", Name: "Run", Parent: -1, Start: 0, End: 100},
		{Layer: "pricing", Name: "Quote", Parent: 0, Start: 10, End: 40},
		{Layer: "graph", Name: "KSP", Parent: 1, Start: 15, End: 25},
		{Layer: "pricing", Name: "Quote", Parent: 0, Start: 50, End: 70},
		{Layer: "core", Name: "New", Parent: -1, Start: 200, End: 205},
	}
	want := []int64{50, 20, 10, 20, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d ns, want %d", i, got[i], want[i])
		}
	}
	layers := byLayer(spans)
	if l := layers["core"]; l.Count != 2 || l.Total != 105 || l.Self != 55 {
		t.Errorf("core = %+v, want 2 spans, 105 ns total, 55 ns self", l)
	}
	if l := layers["pricing"]; l.Count != 2 || l.Total != 50 || l.Self != 40 {
		t.Errorf("pricing = %+v, want 2 spans, 50 ns total, 40 ns self", l)
	}
	// Self times partition the root spans' durations.
	var self int64
	for _, s := range got {
		self += s
	}
	if self != 105 {
		t.Errorf("self times add up to %d ns, want the 105 ns of the root spans", self)
	}
}

func TestTracerNesting(t *testing.T) {
	var off *tracer
	off.end(off.begin("core", "Run", 0)) // a nil tracer records nothing and must not panic

	tr := newTracer("w", time.Now(), 4)
	a := tr.begin("core", "Run", 7)
	b := tr.begin("pricing", "Quote", 7)
	tr.end(b)
	c := tr.begin("sim", "Evaluate", 7)
	tr.end(c)
	tr.end(a)
	if len(tr.spans) != 3 || len(tr.open) != 0 {
		t.Fatalf("got %d spans, %d still open; want 3 and 0", len(tr.spans), len(tr.open))
	}
	if tr.spans[a].Parent != -1 || tr.spans[b].Parent != a || tr.spans[c].Parent != a {
		t.Errorf("parents = %d %d %d, want -1 %d %d", tr.spans[a].Parent, tr.spans[b].Parent, tr.spans[c].Parent, a, a)
	}
	for i, s := range tr.spans {
		if s.End < s.Start || s.Workload != "w" || s.ID != 7 {
			t.Errorf("span %d = %+v", i, s)
		}
	}
}

func TestFailureAccounting(t *testing.T) {
	r := newReport("admit-http", 1, false)
	r.count(1000, 0)
	r.count(500, 3)
	if r.Attempted != 1500 || r.Failed != 3 || !r.Correct {
		t.Errorf("after counting: attempted %d failed %d correct %v; want 1500, 3, true", r.Attempted, r.Failed, r.Correct)
	}
	r.fail("edge %d over capacity", 4)
	if r.Correct || len(r.Problems) != 1 || r.Problems[0] != "edge 4 over capacity" {
		t.Errorf("after fail: correct %v problems %q", r.Correct, r.Problems)
	}
	if r.Attempted != 1500 || r.Failed != 3 {
		t.Error("a failed output check must not change the op tally")
	}
}

func TestValidate(t *testing.T) {
	full := func() *report {
		r := newReport("loop-wan16", 1, false)
		for _, s := range endToEnd {
			r.set(s.Name, 1.5, 1)
		}
		r.count(1, 0)
		return r
	}
	r := full()
	if r.validate(); !r.Correct {
		t.Errorf("a complete report failed validation: %q", r.Problems)
	}
	r = full()
	delete(r.Values, "welfare")
	if r.validate(); r.Correct {
		t.Error("a report missing an end-to-end metric passed validation")
	}
	r = full()
	r.set("op_p50_us", math.NaN(), 1)
	if r.validate(); r.Correct || r.Values["op_p50_us"].V != 0 {
		t.Error("a NaN metric must fail validation and be zeroed so the result line still encodes")
	}
	r = full()
	r.set("no.such_metric", 1, 1)
	if r.validate(); r.Correct {
		t.Error("a metric outside the contract passed validation")
	}
	r = full()
	r.Attempted = 0
	if r.validate(); r.Correct || r.Attempted != 1 {
		t.Error("a report with nothing attempted must fail validation and still print attempted >= 1")
	}

	// A traced report may leave metrics out (they print as 0) and the
	// result line carries every per-layer name all the same.
	tr := newReport("sam-paper", 1, true)
	tr.set("lp.cold_pivots", 31084, 1)
	tr.count(49, 0)
	if tr.validate(); !tr.Correct {
		t.Errorf("a sparse traced report failed validation: %q", tr.Problems)
	}
	var line struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(tr.contractLine()), &line); err != nil {
		t.Fatal(err)
	}
	if len(line.Metrics) != len(perLayer) || line.Metrics["lp.cold_pivots"].Value != 31084 ||
		line.Metrics["serve.quotes"].Unit != "count" || !line.Correct || line.Attempted != 49 {
		t.Errorf("result line = %+v", line)
	}
}

func TestCheckReference(t *testing.T) {
	old := references
	defer func() { references = old }()
	references = map[string]referenceSet{"w": {
		Seeds:   map[string][]float64{"1": {100, 200}},
		AnySeed: []float64{300},
	}}
	ok := newReport("w", 1, false)
	checkReference(ok, 100*(1+0.5*referenceTol), 200, 12345) // a value with no constant checks nothing
	if !ok.Correct {
		t.Errorf("values within tolerance failed: %q", ok.Problems)
	}
	off := newReport("w", 1, false)
	checkReference(off, 100, 200*(1+2*referenceTol))
	if off.Correct {
		t.Error("a value two tolerances off its seed's constant passed")
	}
	other := newReport("w", 9, false)
	checkReference(other, 300*(1-0.5*referenceTol), 999)
	if !other.Correct {
		t.Errorf("an unlisted seed within tolerance of the any-seed constant failed: %q", other.Problems)
	}
	checkReference(other, 100)
	if other.Correct {
		t.Error("an unlisted seed was checked against another seed's constant, or not at all")
	}
	none := newReport("unlisted-workload", 1, false)
	checkReference(none, 1, 2, 3)
	if !none.Correct {
		t.Error("a workload with no constants must check nothing")
	}
}

func TestFastest(t *testing.T) {
	got := fastest([][]float64{{5, 1, 9}, {4, 2, 9}, {6, 3, 8}})
	want := []float64{4, 1, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fastest[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the program's tables")

// TestContractFile holds BENCHMARK.json and the tables in metrics.go and
// main.go together: the file is exactly what the tables render to. After
// changing a table, `go test -run TestContractFile -update .` rewrites it.
func TestContractFile(t *testing.T) {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workload(w))
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	largest := 0.0
	for _, s := range endToEnd {
		bound := s.Bound
		doc.EndToEnd = append(doc.EndToEnd, metric{s.Name, s.Unit, s.Better, &bound})
		largest = math.Max(largest, s.Bound)
	}
	for _, s := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metric{s.Name, s.Unit, s.Better, nil})
	}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if len(s.Name) > 64 || len(s.Unit) > 16 {
			t.Errorf("%s: name or unit too long for the contract", s.Name)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Bound != largest || largest > 0.25 {
		t.Errorf("setup_s must carry the largest bound, and none may exceed 0.25")
	}

	want, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json is not what the program's tables render to; run `go test -run TestContractFile -update .`")
	}
}
