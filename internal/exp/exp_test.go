package exp

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"pretium/internal/graph"
	"pretium/internal/sim"
	"pretium/internal/traffic"
)

func TestSetupDeterministic(t *testing.T) {
	a := NewSetup(Small())
	b := NewSetup(Small())
	if len(a.Requests) != len(b.Requests) {
		t.Fatal("request counts differ")
	}
	for i := range a.Requests {
		if a.Requests[i].Demand != b.Requests[i].Demand || a.Requests[i].Value != b.Requests[i].Value {
			t.Fatalf("request %d differs", i)
		}
	}
	if a.Net.NumEdges() != b.Net.NumEdges() {
		t.Fatal("networks differ")
	}
}

func TestSetupOptions(t *testing.T) {
	base := NewSetup(Small())
	loaded := NewSetup(Small(), WithLoad(2))
	var vb, vl float64
	for t2 := range base.Series {
		vb += base.Series[t2].Total()
		vl += loaded.Series[t2].Total()
	}
	if math.Abs(vl-2*vb) > 1e-6*vb {
		t.Errorf("load 2 volume %v, want %v", vl, 2*vb)
	}
	scaled := NewSetup(Small(), WithCostScale(3))
	eb := base.Net.UsagePricedEdges()
	es := scaled.Net.UsagePricedEdges()
	if len(eb) == 0 {
		t.Fatal("no usage-priced edges")
	}
	r := scaled.Net.Edge(es[0]).CostPerUnit / base.Net.Edge(eb[0]).CostPerUnit
	if math.Abs(r-3) > 1e-9 {
		t.Errorf("cost scale ratio = %v", r)
	}
	seeded := NewSetup(Small(), WithSeed(99))
	if len(seeded.Requests) == len(base.Requests) {
		same := true
		for i := range seeded.Requests {
			if seeded.Requests[i].Demand != base.Requests[i].Demand {
				same = false
				break
			}
		}
		if same {
			t.Error("different seed produced identical requests")
		}
	}
}

// TestSetupExportRoundTrip pins what `experiments -exp export` and
// `-exp run` rely on: a setup's network and load-1 series, written to CSV
// and read back through WithNetwork and WithSeries, rebuild the generated
// setup exactly — the same requests and the same Pretium welfare bits.
func TestSetupExportRoundTrip(t *testing.T) {
	for _, sc := range []Scale{Small(), Default()} {
		for _, seed := range []int64{1, 7} {
			var topo, trace bytes.Buffer
			exported := NewSetup(sc, WithSeed(seed))
			if err := exported.Net.WriteCSV(&topo); err != nil {
				t.Fatal(err)
			}
			if err := traffic.WriteSeriesCSV(&trace, exported.Series); err != nil {
				t.Fatal(err)
			}
			net, err := graph.ReadCSV(&topo)
			if err != nil {
				t.Fatal(err)
			}
			series, err := traffic.ReadSeriesCSV(&trace)
			if err != nil {
				t.Fatal(err)
			}

			want := NewSetup(sc, WithSeed(seed), WithLoad(2))
			cases := map[string]*Setup{
				"topology+series": NewSetup(sc, WithSeed(seed), WithNetwork(net), WithSeries(series), WithLoad(2)),
				// Without a series the scale's traffic is generated on the
				// given network, BaseDemand included.
				"topology-only": NewSetup(sc, WithSeed(seed), WithNetwork(net), WithLoad(2)),
			}
			for name, got := range cases {
				if !reflect.DeepEqual(got.Requests, want.Requests) {
					t.Errorf("%s/%d %s: rebuilt requests differ from the generated ones", sc.Name, seed, name)
					continue
				}
				a, err := got.RunPretium(nil)
				if err != nil {
					t.Fatal(err)
				}
				b, err := want.RunPretium(nil)
				if err != nil {
					t.Fatal(err)
				}
				if a.Report.Welfare != b.Report.Welfare {
					t.Errorf("%s/%d %s: welfare %v, generated %v", sc.Name, seed, name, a.Report.Welfare, b.Report.Welfare)
				}
			}
			if !reflect.DeepEqual(series, exported.Series) {
				t.Errorf("%s/%d: WithLoad scaled the caller's series", sc.Name, seed)
			}
		}
	}
}

// TestWithNetworkCostScaleCopies pins that WithCostScale scales a copy of
// a caller's network, never the network itself.
func TestWithNetworkCostScaleCopies(t *testing.T) {
	net := NewSetup(Small()).Net
	priced := net.UsagePricedEdges()
	if len(priced) == 0 {
		t.Fatal("no usage-priced edges")
	}
	before := net.Edge(priced[0]).CostPerUnit
	s := NewSetup(Small(), WithNetwork(net), WithCostScale(3))
	if got := net.Edge(priced[0]).CostPerUnit; got != before {
		t.Errorf("caller's cost mutated: %v, was %v", got, before)
	}
	if got := s.Net.Edge(priced[0]).CostPerUnit; got != 3*before {
		t.Errorf("setup cost %v, want %v", got, 3*before)
	}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"small", "default", "medium", "paper"} {
		sc, err := ScaleByName(name)
		if err != nil || sc.Name != name {
			t.Errorf("ScaleByName(%q) = %q, %v", name, sc.Name, err)
		}
	}
	if _, err := ScaleByName("weird"); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestRunAllSchemesSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-LP run")
	}
	s := NewSetup(Small())
	res, err := s.RunSchemes(AllSchemes()...)
	if err != nil {
		t.Fatal(err)
	}
	opt := res[SchemeOPT].Report.Welfare
	if opt <= 0 {
		t.Fatalf("OPT welfare %v", opt)
	}
	for name, r := range res {
		if err := sim.CheckCapacities(s.Net, r.Outcome.Usage, 1e-5); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if r.Report.Welfare > opt+1e-6 {
			t.Errorf("%s welfare %v exceeds OPT %v", name, r.Report.Welfare, opt)
		}
	}
	// Pretium leads the practical schemes.
	pret := res[SchemePretium].Report.Welfare
	for _, name := range []string{SchemeVCGLike} {
		if pret < res[name].Report.Welfare {
			t.Errorf("Pretium %v below %s %v", pret, name, res[name].Report.Welfare)
		}
	}
}

func TestUnknownScheme(t *testing.T) {
	s := NewSetup(Small())
	if _, err := s.RunScheme("nope"); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestFigure1Rows(t *testing.T) {
	rows := Figure1(Small(), 5)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	prev := -1.0
	for _, r := range rows {
		v := r.Columns[0].Value
		if v < prev || v < 0 || v > 1 {
			t.Fatalf("CDF not monotone in [0,1]: %+v", rows)
		}
		prev = v
		if r.Fmt() == "" {
			t.Error("empty row format")
		}
	}
	if rows[len(rows)-1].Columns[0].Value < 0.99 {
		t.Errorf("CDF does not reach 1: %v", rows[len(rows)-1])
	}
}

func TestFigure2WorkedExample(t *testing.T) {
	rows := Figure2()
	byLabel := map[string]Row{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	get := func(label, col string) float64 {
		r, ok := byLabel[label]
		if !ok {
			t.Fatalf("missing row %q", label)
		}
		for _, c := range r.Columns {
			if c.Name == col {
				return c.Value
			}
		}
		t.Fatalf("missing col %q in %q", col, label)
		return 0
	}
	// The paper's optimum is 34 and Pretium's prices support it.
	if w := get("Optimal", "welfare"); math.Abs(w-34) > 1e-6 {
		t.Errorf("optimal welfare = %v, want 34", w)
	}
	if w := get("Pretium", "welfare"); math.Abs(w-34) > 1e-6 {
		t.Errorf("Pretium welfare = %v, want 34", w)
	}
	if get("check", "pretium_equals_optimal") != 1 {
		t.Error("Pretium did not match the optimum")
	}
	// Value-blind tie-breaking loses welfare.
	if w := get("NoPrice(worst tie)", "welfare"); w >= 34 {
		t.Errorf("NoPrice worst tie welfare = %v, want < 34", w)
	}
	// Fixed pricing is also below the optimum.
	for _, lbl := range []string{"PerLink(best)", "PerTime(best)"} {
		found := false
		for l := range byLabel {
			if l == lbl {
				found = true
			}
		}
		if !found {
			t.Errorf("missing %s row", lbl)
		}
	}
}

func TestFigure4Rows(t *testing.T) {
	rows := Figure4()
	if len(rows) < 2 {
		t.Fatal("no rows")
	}
	for _, r := range rows[:len(rows)-1] {
		long, short := r.Columns[0].Value, r.Columns[1].Value
		if short < long-1e-9 {
			t.Errorf("short deadline cheaper: %+v", r)
		}
	}
	caps := rows[len(rows)-1]
	if caps.Columns[0].Value < caps.Columns[1].Value {
		t.Errorf("long deadline has smaller cap: %+v", caps)
	}
}

func TestFigure5Correlation(t *testing.T) {
	rows := Figure5(Small(), 5)
	if len(rows) != 4 {
		t.Fatalf("want 4 rows (trace + 3 distributions), got %d", len(rows))
	}
	for _, r := range rows {
		var r2, slope float64
		for _, c := range r.Columns {
			switch c.Name {
			case "R2":
				r2 = c.Value
			case "slope":
				slope = c.Value
			}
		}
		if r2 < 0.7 {
			t.Errorf("%s: R2 = %v, want strong linear correlation", r.Label, r2)
		}
		if slope <= 0 {
			t.Errorf("%s: slope = %v, want positive", r.Label, slope)
		}
	}
}

func TestLoadSweepAndProjections(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-LP run")
	}
	sweep, err := LoadSweep(Small(), []float64{1, 2}, []string{SchemeOPT, SchemeNoPrices, SchemeRegionOracle, SchemePretium}, 1)
	if err != nil {
		t.Fatal(err)
	}
	f6 := Figure6(sweep)
	if len(f6) != 2 {
		t.Fatalf("figure6 rows = %d", len(f6))
	}
	for _, r := range f6 {
		for _, c := range r.Columns {
			if c.Value > 1+1e-6 {
				t.Errorf("welfare ratio above 1: %+v", r)
			}
		}
	}
	f8 := Figure8(sweep)
	if len(f8) != 2 {
		t.Fatalf("figure8 rows = %d", len(f8))
	}
	f9 := Figure9(sweep)
	for _, r := range f9 {
		for _, c := range r.Columns {
			if c.Value < 0 || c.Value > 1 {
				t.Errorf("completion out of range: %+v", r)
			}
		}
	}
}

func TestFigure7Panels(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-LP run")
	}
	a, b, c, err := Figure7(Small(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(b) == 0 || len(c) == 0 {
		t.Fatalf("empty panels: %d %d %d", len(a), len(b), len(c))
	}
	for _, r := range a {
		if r.Columns[1].Value < 0 || r.Columns[1].Value > 1+1e-6 {
			t.Errorf("utilization out of range: %+v", r)
		}
	}
}

func TestFigure10To14(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-LP run")
	}
	f10, err := Figure10(Small(), []string{SchemeRegionOracle, SchemePretium}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f10) == 0 {
		t.Error("figure10 empty")
	}
	f11, err := Figure11(Small(), []float64{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f11 {
		var full, noSAM float64
		for _, c := range r.Columns {
			switch c.Name {
			case SchemePretium:
				full = c.Value
			case SchemeNoSAM:
				noSAM = c.Value
			}
		}
		if full < noSAM-0.05 {
			t.Errorf("full Pretium (%v) materially below NoSAM (%v)", full, noSAM)
		}
	}
	f12, err := Figure12(Small(), []float64{1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f12) != 2 {
		t.Error("figure12 rows")
	}
	f13, f14, err := Figure13and14(Small(), ValueDistCases()[:2], 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f13) != 2 || len(f14) != 2 {
		t.Error("figure13/14 rows")
	}
}

func TestTable4(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-LP run")
	}
	rows, err := Table4(Small(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("table4 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Columns[0].Value < 0 {
			t.Errorf("negative runtime: %+v", r)
		}
	}
}

func TestIncentivesSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("many full simulations")
	}
	res, err := Incentives(Small(), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampled == 0 {
		t.Fatal("no admitted requests sampled")
	}
	if res.TighterEverHelps {
		t.Error("reporting a tighter deadline improved utility")
	}
	// The paper's claim at our scale: most requests cannot gain.
	frac := float64(res.CanBenefit) / float64(res.Sampled)
	if frac > 0.5 {
		t.Errorf("%.0f%% of requests can gain by deviating; expected a minority", frac*100)
	}
	if res.String() == "" || len(res.Rows()) == 0 {
		t.Error("empty renderings")
	}
}

func TestConvergenceDecays(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day simulation")
	}
	rows, err := Convergence(Small(), 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	first := rows[0].Columns[0].Value
	last := rows[len(rows)-1].Columns[0].Value
	if !(last < first/2) {
		t.Errorf("price updates did not settle: first %v, last %v", first, last)
	}
	for _, r := range rows {
		if v := r.Columns[0].Value; v < 0 || v > 2 {
			t.Errorf("relative distance out of range: %v", v)
		}
	}
	if _, err := Convergence(Small(), 2, 1); err == nil {
		t.Error("too-few days accepted")
	}
}

func TestRenderBars(t *testing.T) {
	rows := []Row{
		{Label: "a", Columns: []Col{{Name: "w", Value: 1.0}}},
		{Label: "bb", Columns: []Col{{Name: "w", Value: -0.5}}},
		{Label: "c", Columns: []Col{{Name: "other", Value: 9}}},
	}
	out := RenderBars(rows, "w", 40)
	if out == "" {
		t.Fatal("empty chart")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // header + 2 rows with the column
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "#") || !strings.Contains(lines[2], "#") {
		t.Errorf("bars missing:\n%s", out)
	}
	// Negative bar sits left of the axis.
	axis := strings.Index(lines[2], "|")
	if !strings.Contains(lines[2][:axis], "#") {
		t.Errorf("negative bar not left of axis:\n%s", out)
	}
	if RenderBars(rows, "zzz", 40) != "" {
		t.Error("unknown column should render nothing")
	}
	if RenderBars(nil, "w", 40) != "" {
		t.Error("no rows should render nothing")
	}
	// Zero-only values must not divide by zero.
	zero := []Row{{Label: "z", Columns: []Col{{Name: "w", Value: 0}}}}
	if RenderBars(zero, "w", 40) == "" {
		t.Error("zero-valued chart should still render")
	}
}

func TestRenderSeries(t *testing.T) {
	var rows []Row
	for i := 0; i < 8; i++ {
		rows = append(rows, Row{Label: "t", Columns: []Col{{Name: "p", Value: float64(i)}}})
	}
	out := RenderSeries(rows, "p")
	if !strings.Contains(out, "▁") || !strings.Contains(out, "█") {
		t.Errorf("sparkline missing ramp ends: %q", out)
	}
	if RenderSeries(rows, "zzz") != "" {
		t.Error("unknown column should render nothing")
	}
	flat := []Row{
		{Label: "t", Columns: []Col{{Name: "p", Value: 5}}},
		{Label: "t", Columns: []Col{{Name: "p", Value: 5}}},
	}
	if out := RenderSeries(flat, "p"); !strings.Contains(out, "▁▁") {
		t.Errorf("flat series should render low blocks: %q", out)
	}
}

func TestPaperScaleGenerates(t *testing.T) {
	// The paper-scale setup must at least construct (no LP solves here:
	// a single one takes minutes).
	sc := Paper()
	s := NewSetup(sc)
	if s.Net.NumNodes() != 105 {
		t.Errorf("nodes = %d, want 105", s.Net.NumNodes())
	}
	if s.Net.NumEdges() < 200 {
		t.Errorf("edges = %d, want >= 200 (paper: 226)", s.Net.NumEdges())
	}
	if len(s.Requests) == 0 {
		t.Error("no requests at paper scale")
	}
	for _, r := range s.Requests[:10] {
		if err := r.Validate(s.Net); err != nil {
			t.Fatal(err)
		}
	}
}
