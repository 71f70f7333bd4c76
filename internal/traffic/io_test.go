package traffic

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestSeriesCSVRoundTrip(t *testing.T) {
	n := testNet()
	orig := Generate(n, DefaultGenConfig(6))
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSeriesCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orig) {
		t.Fatalf("steps = %d, want %d", len(got), len(orig))
	}
	for tt := range orig {
		for i := range orig[tt].Demand {
			for j, v := range orig[tt].Demand[i] {
				if math.Abs(got[tt].Demand[i][j]-v) > 1e-12 {
					t.Fatalf("entry (%d,%d,%d) = %v, want %v", tt, i, j, got[tt].Demand[i][j], v)
				}
			}
		}
	}
}

func TestReadSeriesCSVErrors(t *testing.T) {
	cases := []string{
		"",                                // no header
		"foo,bar,baz,qux\n",               // wrong header
		"step,src,dst,volume\nx,0,1,2\n",  // bad int
		"step,src,dst,volume\n0,0,1,-3\n", // negative volume
		"step,src,dst,volume\n0,1,1,3\n",  // self demand
		"step,src,dst,volume\n",           // empty trace
		"step,src,dst,volume\n0,0,1\n",    // wrong field count
	}
	for _, c := range cases {
		if _, err := ReadSeriesCSV(strings.NewReader(c)); err == nil {
			t.Errorf("accepted malformed input %q", c)
		}
	}
}

func TestRequestsCSVRoundTrip(t *testing.T) {
	n := testNet()
	s := Generate(n, DefaultGenConfig(6))
	cfg := DefaultRequestConfig()
	cfg.RateFraction = 0.3
	orig := Synthesize(n, s, cfg)
	if len(orig) == 0 {
		t.Fatal("no requests")
	}
	var buf bytes.Buffer
	if err := WriteRequestsCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequestsCSV(&buf, n, cfg.RoutesPerRequest)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orig) {
		t.Fatalf("count = %d, want %d", len(got), len(orig))
	}
	for i := range orig {
		a, b := orig[i], got[i]
		if a.ID != b.ID || a.Src != b.Src || a.Dst != b.Dst ||
			a.Arrival != b.Arrival || a.Start != b.Start || a.End != b.End ||
			a.Demand != b.Demand || a.Rate != b.Rate || a.Kind != b.Kind || a.Value != b.Value {
			t.Fatalf("request %d mismatch: %+v vs %+v", i, a, b)
		}
		if len(b.Routes) == 0 {
			t.Fatalf("request %d has no rebuilt routes", i)
		}
	}
}

func TestReadRequestsCSVErrors(t *testing.T) {
	n := testNet()
	cases := []string{
		"",
		"id,src,dst,arrival,start,end,demand,rate,kind,value\nx,0,1,0,0,1,5,0,0,2\n",
		"id,src,dst,arrival,start,end,demand,rate,kind,value\n0,0,1,0,0,1,bad,0,0,2\n",
		// arrival after start fails request validation
		"id,src,dst,arrival,start,end,demand,rate,kind,value\n0,0,1,5,0,1,5,0,0,2\n",
		// so do non-finite demands, rates and values
		"id,src,dst,arrival,start,end,demand,rate,kind,value\n0,0,1,0,0,1,NaN,0,0,2\n",
		"id,src,dst,arrival,start,end,demand,rate,kind,value\n0,0,1,0,0,1,+Inf,0,0,2\n",
		"id,src,dst,arrival,start,end,demand,rate,kind,value\n0,0,1,0,0,1,5,Inf,1,2\n",
		"id,src,dst,arrival,start,end,demand,rate,kind,value\n0,0,1,0,0,1,5,0,0,NaN\n",
	}
	for _, c := range cases {
		if _, err := ReadRequestsCSV(strings.NewReader(c), n, 2); err == nil {
			t.Errorf("accepted malformed input %q", c)
		}
	}
}
