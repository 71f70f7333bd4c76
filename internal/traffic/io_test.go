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
