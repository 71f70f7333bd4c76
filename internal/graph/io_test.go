package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestNetworkCSVRoundTrip(t *testing.T) {
	orig := GenerateWAN(DefaultWANConfig())
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != orig.NumNodes() || got.NumEdges() != orig.NumEdges() {
		t.Fatalf("counts: %d/%d nodes, %d/%d edges",
			got.NumNodes(), orig.NumNodes(), got.NumEdges(), orig.NumEdges())
	}
	for i := 0; i < orig.NumNodes(); i++ {
		a, b := orig.Node(NodeID(i)), got.Node(NodeID(i))
		if a != b {
			t.Fatalf("node %d: %+v vs %+v", i, a, b)
		}
	}
	for i := 0; i < orig.NumEdges(); i++ {
		a, b := orig.Edge(EdgeID(i)), got.Edge(EdgeID(i))
		if a != b {
			t.Fatalf("edge %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestNetworkCSVRoundTripHandBuilt(t *testing.T) {
	orig := New()
	a := orig.AddNode("a", "us")
	b := orig.AddNode("b", "eu")
	e := orig.AddEdge(a, b, 7.5)
	orig.SetUsagePriced(e, 2.25)
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ge := got.Edge(0)
	if !ge.UsagePriced || ge.CostPerUnit != 2.25 || ge.Capacity != 7.5 {
		t.Errorf("edge = %+v", ge)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"foo,bar\n",
		"name,region\na,r\n\nwrong,header,x,y,z\n",
		"name,region\na,r\nb,r\n\nfrom,to,capacity,usage_priced,cost_per_unit\na,z,1,false,0\n",    // unknown node
		"name,region\na,r\nb,r\n\nfrom,to,capacity,usage_priced,cost_per_unit\na,b,x,false,0\n",    // bad float
		"name,region\na,r\nb,r\n\nfrom,to,capacity,usage_priced,cost_per_unit\na,b,0,false,0\n",    // zero capacity
		"name,region\na,r\nb,r\n\nfrom,to,capacity,usage_priced,cost_per_unit\na,a,1,false,0\n",    // self loop
		"name,region\na,r\na,r\n\nfrom,to,capacity,usage_priced,cost_per_unit\n",                   // duplicate node
		"name,region\na,r\nb,r\n\nfrom,to,capacity,usage_priced,cost_per_unit\na,b,1,maybe,0\n",    // bad bool
		"name,region\na,r\nb,r\n\nfrom,to,capacity,usage_priced,cost_per_unit\na,b,NaN,false,0\n",  // NaN capacity
		"name,region\na,r\nb,r\n\nfrom,to,capacity,usage_priced,cost_per_unit\na,b,+Inf,false,0\n", // infinite capacity
		"name,region\na,r\nb,r\n\nfrom,to,capacity,usage_priced,cost_per_unit\na,b,1,true,-1\n",    // negative priced cost
		"name,region\na,r\nb,r\n\nfrom,to,capacity,usage_priced,cost_per_unit\na,b,1,true,NaN\n",   // NaN priced cost
		"name,region\na,r\nb,r\n\nfrom,to,capacity,usage_priced,cost_per_unit\na,b,1,true,Inf\n",   // infinite priced cost
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("accepted malformed input %q", c)
		}
	}
}
