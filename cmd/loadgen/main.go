// Command loadgen is the closed-loop load generator for the admission
// service: N workers drive a mixed quote/admit workload against an
// in-process serve.Service (the same code path cmd/pretium-serve puts
// behind HTTP, minus the transport) while a publisher goroutine swaps
// pricing epochs at a fixed cadence. It reports sustained ops/sec and a
// latency histogram through the internal/obs registry, and ends with a
// `go test -bench`-shaped line so the Makefile can pipe the run through
// cmd/benchjson and gate the throughput floor:
//
//	loadgen -duration 5s -workers 4 | \
//	    go run ./cmd/benchjson -gate 'BenchmarkLoadgen/closed_loop:ops/sec>=1000000'
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pretium/internal/exp"
	"pretium/internal/obs"
	"pretium/internal/pricing"
	"pretium/internal/serve"
	"pretium/internal/traffic"
)

func main() {
	var (
		scale        = flag.String("scale", "small", "experiment scale: small, default, medium, or paper")
		seed         = flag.Int64("seed", 1, "topology and request-stream seed")
		workers      = flag.Int("workers", 4, "concurrent closed-loop workers")
		duration     = flag.Duration("duration", 3*time.Second, "run length")
		admitFrac    = flag.Float64("admit-frac", 0.1, "fraction of ops that are binding admits (rest are quotes)")
		publishEvery = flag.Duration("publish-every", 100*time.Millisecond, "epoch publish cadence (0 disables)")
		// The synthesized value distribution has mean ~0.35/byte, so the
		// default price sits below it and a healthy share of admits accept
		// (price 1.0 would decline everything and never exercise commits).
		price = flag.Float64("price", 0.2, "initial uniform base price")
		out   = flag.String("out", "", "write the obs metrics snapshot to this file")
	)
	flag.Parse()

	sc, err := scaleByName(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	setup := exp.NewSetup(sc, exp.WithSeed(*seed))
	var reqs []*traffic.Request
	for _, r := range setup.Requests {
		if r.Kind == traffic.ByteRequest {
			reqs = append(reqs, r)
		}
	}
	if len(reqs) == 0 {
		log.Fatal("loadgen: setup synthesized no byte requests")
	}

	m := obs.NewMetrics()
	svc, err := serve.New(pricing.NewState(setup.Net, sc.Steps, *price), serve.Config{Obs: m})
	if err != nil {
		log.Fatal(err)
	}

	// Resolve every handle up front so the hot loop never touches the
	// registry lock. Latency edges are powers of two from 128ns to ~8ms.
	ops := m.Counter("loadgen.ops")
	var edges []float64
	for ns := 128.0; ns <= 8.5e6; ns *= 2 {
		edges = append(edges, ns)
	}
	lat := m.Histogram("loadgen.latency_ns", edges)

	// admitEvery turns the admit fraction into a deterministic per-worker
	// cycle: one admit per admitEvery ops.
	admitEvery := 1 << 62
	if *admitFrac > 0 {
		admitEvery = int(math.Round(1 / *admitFrac))
		if admitEvery < 1 {
			admitEvery = 1
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	if *publishEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(*publishEvery)
			defer tick.Stop()
			for !stop.Load() {
				<-tick.C
				if err := svc.Publish(nil, false); err != nil {
					log.Fatalf("loadgen: publish: %v", err)
				}
			}
		}()
	}

	start := time.Now()
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var n int64
			// Stagger workers across the stream so the service sees a mix.
			i := w * len(reqs) / max(*workers, 1)
			for !stop.Load() {
				req := reqs[i]
				i++
				if i == len(reqs) {
					i = 0
				}
				n++
				// Sampling 1-in-8 keeps the clock calls off the hot path
				// while the histogram still sees thousands of points/sec.
				sample := n&7 == 0
				var t0 time.Time
				if sample {
					t0 = time.Now()
				}
				if n%int64(admitEvery) == 0 {
					svc.Admit(req)
				} else {
					svc.Quote(req, req.Demand)
				}
				if sample {
					lat.Observe(float64(time.Since(t0).Nanoseconds()))
				}
			}
			ops.Add(n)
		}(w)
	}
	time.Sleep(*duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	total := ops.Value()
	opsPerSec := float64(total) / elapsed.Seconds()
	m.Gauge("loadgen.ops_per_sec").Set(opsPerSec)

	fmt.Fprintf(os.Stderr, "loadgen: %s scale, %d workers, %v\n", sc.Name, *workers, elapsed.Round(time.Millisecond))
	fmt.Fprintf(os.Stderr, "  ops        %d (%.0f ops/sec)\n", total, opsPerSec)
	fmt.Fprintf(os.Stderr, "  quotes     %d\n", m.Counter("serve.quotes").Value())
	fmt.Fprintf(os.Stderr, "  admits     %d accepted, %d declined\n", m.Counter("serve.admits").Value(), m.Counter("serve.declines").Value())
	fmt.Fprintf(os.Stderr, "  publishes  %d (epoch %d)\n", m.Counter("serve.publishes").Value(), svc.Epoch())
	if lat.Count() > 0 {
		fmt.Fprintf(os.Stderr, "  latency    mean %s  p50 %s  p95 %s  p99 %s  (sampled 1/8)\n",
			fmtNs(lat.Sum()/float64(lat.Count())), fmtNs(lat.Quantile(0.5)), fmtNs(lat.Quantile(0.95)), fmtNs(lat.Quantile(0.99)))
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := m.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}

	// The bench-format line benchjson parses: iterations, ns/op, and the
	// ops/sec rate a `>=` gate can put a floor under.
	fmt.Printf("BenchmarkLoadgen/closed_loop %d %.1f ns/op %.0f ops/sec\n",
		total, float64(elapsed.Nanoseconds())/float64(max(total, 1)), opsPerSec)
}

// fmtNs renders a nanosecond quantity from the histogram; the overflow
// bucket's +Inf prints as beyond the largest edge.
func fmtNs(ns float64) string {
	if math.IsInf(ns, 1) {
		return ">8.4ms"
	}
	return time.Duration(int64(ns)).String()
}

func scaleByName(name string) (exp.Scale, error) {
	switch name {
	case "small":
		return exp.Small(), nil
	case "default":
		return exp.Default(), nil
	case "medium":
		return exp.Medium(), nil
	case "paper":
		return exp.Paper(), nil
	}
	return exp.Scale{}, fmt.Errorf("unknown scale %q (want small, default, medium, or paper)", name)
}
