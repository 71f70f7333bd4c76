package lp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// spareJob is one solve sequence of TestSpareKernelMatchesFresh: a cold
// solve of model(0) and, for a warm job, a warm re-solve of its sibling
// model(1) from the Basis the cold solve captured.
type spareJob struct {
	name  string
	model func(variant int) *Model
	warm  bool
}

// spareJobs mixes small-model sizes from a dozen rows to about 1,200, so
// consecutive solves reslice one kernel both up and down.
func spareJobs() []spareJob {
	var jobs []spareJob
	for i, n := range []int{600, 40, 200, 24} {
		seed := int64(70 + i)
		jobs = append(jobs, spareJob{
			name: fmt.Sprintf("staircase %d", n),
			warm: i%2 == 0,
			model: func(variant int) *Model {
				lp := crashStaircase(seed, n, 0, false)
				for j := 0; variant == 1 && j < len(lp.flows); j += 3 {
					lp.m.SetObj(lp.flows[j], 0.1)
				}
				return lp.m
			},
		})
		jobs = append(jobs, spareJob{
			name: fmt.Sprintf("sam-shaped %d", seed),
			warm: i%2 == 1,
			model: func(variant int) *Model {
				return samShapedLP(rand.New(rand.NewSource(seed)), 1+0.3*float64(variant))
			},
		})
	}
	return jobs
}

// run solves the job and returns every bit of its answers: status, pivots,
// refactorizations, objective, primal and dual values, cold then warm.
func (j spareJob) run() ([]uint64, error) {
	var bits []uint64
	record := func(sol *Solution) {
		bits = append(bits, uint64(sol.Status), uint64(sol.Iterations), uint64(sol.Refactors),
			math.Float64bits(sol.Objective))
		for _, v := range append(append([]float64{}, sol.X...), sol.Dual...) {
			bits = append(bits, math.Float64bits(v))
		}
	}
	cold, err := j.model(0).Solve(Options{})
	if err != nil {
		return nil, err
	}
	if cold.Status != Optimal {
		return nil, fmt.Errorf("%s: cold status %v", j.name, cold.Status)
	}
	record(cold)
	if j.warm {
		warm, err := j.model(1).Solve(Options{WarmBasis: cold.Basis()})
		if err != nil {
			return nil, err
		}
		record(warm)
	}
	return bits, nil
}

// TestSpareKernelMatchesFresh: a solve on the kernel the free list hands
// over — sized for another model, resliced by capacity, a warm install
// copied into it — answers to the bit what the same solve answers
// on a kernel built for it. The jobs run interleaved one after another,
// where the test also sees the kernel go round the slot, then from four
// goroutines at once, which under the race detector proves the slot hands
// a kernel to one solve at a time.
func TestSpareKernelMatchesFresh(t *testing.T) {
	jobs := spareJobs()
	want := make([][]uint64, len(jobs))
	old := newFactor
	newFactor = func(large bool) factor {
		if large {
			return &ftFactor{}
		}
		return &etaFactor{}
	}
	for i, j := range jobs {
		var err error
		if want[i], err = j.run(); err != nil {
			newFactor = old
			t.Fatal(err)
		}
	}
	newFactor = old

	check := func(i int, ctx string) {
		got, err := jobs[i].run()
		if err != nil {
			t.Error(err)
			return
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s: %s on a spare kernel differs from a fresh one", ctx, jobs[i].name)
		}
	}
	for i := range jobs {
		check(i, "sequential")
	}
	spare := spareEta.Load()
	if spare == nil {
		t.Fatal("no kernel on the free list after a sequence of small solves")
	}
	for _, i := range []int{0, 1} { // a warm job, then a cold one
		check(i, "sequential again")
		if spareEta.Load() != spare {
			t.Errorf("%s did not run on the spare kernel and hand it back", jobs[i].name)
		}
	}
	if spare.mkz != nil || spare.etaRows != nil {
		t.Error("the spare kernel kept its Markowitz scratch or eta reader index")
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				i := (k + 2*g) % len(jobs)
				check(i, fmt.Sprintf("goroutine %d", g))
			}
		}()
	}
	wg.Wait()
}
