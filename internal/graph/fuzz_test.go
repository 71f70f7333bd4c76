package graph

import (
	"bytes"
	"math"
	"testing"
)

// FuzzReadCSV throws arbitrary bytes at the topology reader and checks
// three properties: it never panics; every network it accepts has finite
// positive capacities and finite non-negative costs on its usage-priced
// edges (they become LP right-hand sides and objective coefficients); and
// the written form of an accepted network is a fixed point — re-reading and
// re-writing reproduces it byte for byte. The seeds (the worked example,
// the default WAN, and the rejects at the numeric boundary) run under plain
// `go test`; `go test -fuzz=FuzzReadCSV ./internal/graph` explores further.
func FuzzReadCSV(f *testing.F) {
	four, _ := FourNodeExample()
	for _, n := range []*Network{four, GenerateWAN(DefaultWANConfig())} {
		var buf bytes.Buffer
		if err := n.WriteCSV(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	const head = "name,region\na,r\nb,r\n\nfrom,to,capacity,usage_priced,cost_per_unit\n"
	for _, edge := range []string{
		"a,b,1,true,0.5", "a,b,NaN,false,0", "a,b,+Inf,true,1", "a,b,1,true,-2", "a,b,1,true,NaN",
	} {
		f.Add([]byte(head + edge + "\n"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs just must not panic
		}
		for _, e := range n.Edges() {
			if !(e.Capacity > 0) || math.IsInf(e.Capacity, 1) {
				t.Fatalf("edge %d: accepted capacity %v", e.ID, e.Capacity)
			}
			if e.UsagePriced && (!(e.CostPerUnit >= 0) || math.IsInf(e.CostPerUnit, 1)) {
				t.Fatalf("edge %d: accepted usage cost %v", e.ID, e.CostPerUnit)
			}
		}
		var w1, w2 bytes.Buffer
		if err := n.WriteCSV(&w1); err != nil {
			t.Fatalf("WriteCSV on accepted network: %v", err)
		}
		n2, err := ReadCSV(bytes.NewReader(w1.Bytes()))
		if err != nil {
			t.Fatalf("re-read of written form: %v\n%s", err, w1.Bytes())
		}
		if err := n2.WriteCSV(&w2); err != nil {
			t.Fatalf("re-write: %v", err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("written form is not a fixed point:\nfirst:\n%s\nsecond:\n%s", w1.Bytes(), w2.Bytes())
		}
	})
}
