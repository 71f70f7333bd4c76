package main

import (
	_ "embed"
	"encoding/json"
	"math"
	"strconv"
)

// reference.json holds, per workload, the constants a correct program
// reproduces. sam-paper: the optimal objective of the cold step and of
// each warm step, in the unit of currency of factor one; they hold for
// every seed, a seed only changing the unit. loop-wan16: the welfare of
// the run, recorded for the development seed 1 and the held-out seed 2;
// other seeds have no constant and rest on the bit-identical-rerun check.
//
//go:embed reference.json
var referenceJSON []byte

type referenceSet struct {
	Seeds   map[string][]float64 `json:"seeds"`
	AnySeed []float64            `json:"any_seed"`
}

// referenceTol is the relative distance from its constant a value may be.
const referenceTol = 1e-6

var references = func() map[string]referenceSet {
	var out map[string]referenceSet
	if err := json.Unmarshal(referenceJSON, &out); err != nil {
		panic("reference.json: " + err.Error())
	}
	return out
}()

// checkReference compares the values a pass produced, in order, with the
// workload's reference constants — the seed's own if it has any, else the
// ones that hold for any seed — and fails the pass on each that is off.
// Values beyond the end of the constants check nothing.
func checkReference(rep *report, got ...float64) {
	set := references[rep.Workload]
	want := set.Seeds[strconv.FormatInt(rep.Seed, 10)]
	if want == nil {
		want = set.AnySeed
	}
	for i, v := range got {
		if i < len(want) && math.Abs(v-want[i]) > referenceTol*math.Abs(want[i]) {
			rep.fail("value %d is %.12g, reference is %.12g (relative tolerance %g)", i, v, want[i], referenceTol)
		}
	}
}
