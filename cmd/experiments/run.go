package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"pretium/internal/exp"
	"pretium/internal/graph"
	"pretium/internal/traffic"
)

// Flags of the run and export verbs. For run, -topology and -series name
// files to read; for export, files to write.
var (
	scheme     = flag.String("scheme", exp.SchemePretium, "run: scheme, one of "+strings.Join(append(exp.AllSchemes(), exp.SchemeNoMenu, exp.SchemeNoSAM, exp.SchemeOnlineTE), ", "))
	load       = flag.Float64("load", 1, "run: traffic load factor")
	rateFrac   = flag.Float64("ratefrac", 0, "run: fraction of requests issued as rate requests")
	topoPath   = flag.String("topology", "", "run: load the WAN from this topology CSV instead of generating it; export: write the WAN here")
	seriesPath = flag.String("series", "", "run: replay this load-1 traffic-matrix CSV instead of generating traffic; export: write the series here")
)

// runScheme runs one scheme (Pretium, an ablation or a baseline) over one
// setup and prints its economics.
func runScheme(rc *runCtx, sc exp.Scale, seed int64) error {
	opts := []exp.SetupOption{exp.WithLoad(*load), exp.WithSeed(seed), exp.WithRateFraction(*rateFrac)}
	nodes := sc.Regions * sc.NodesPerRegion // the generated WAN's
	if *topoPath != "" {
		net, err := readFile(*topoPath, graph.ReadCSV)
		if err != nil {
			return err
		}
		nodes = net.NumNodes()
		opts = append(opts, exp.WithNetwork(net))
	}
	if *seriesPath != "" {
		series, err := readFile(*seriesPath, traffic.ReadSeriesCSV)
		if err != nil {
			return err
		}
		if n := len(series[0].Demand); n > nodes {
			return fmt.Errorf("series covers %d nodes, topology has %d", n, nodes)
		}
		opts = append(opts, exp.WithSeries(series))
	}
	s := exp.NewSetup(sc, opts...)
	fmt.Fprintf(rc.out, "setup: %d nodes, %d edges (%d usage-priced), %d steps, %d requests, load %.2g\n",
		s.Net.NumNodes(), s.Net.NumEdges(), len(s.Net.UsagePricedEdges()), s.Scale.Steps, len(s.Requests), *load)

	start := time.Now()
	res, err := s.RunScheme(*scheme)
	if err != nil {
		return err
	}
	r := res.Report
	fmt.Fprintf(rc.out, "\n%s in %.2fs\n", res.Name, time.Since(start).Seconds())
	fmt.Fprintf(rc.out, "  welfare:    %10.1f  (value %.1f − exact 95th-pct cost %.1f)\n", r.Welfare, r.Value, r.Cost)
	fmt.Fprintf(rc.out, "  profit:     %10.1f  (revenue %.1f)\n", r.Profit, r.Revenue)
	fmt.Fprintf(rc.out, "  completion: %9.1f%%  (%d of %d requests)\n", r.CompletionFrac*100, r.Completed, len(s.Requests))
	fmt.Fprintf(rc.out, "  reneged:    %10.2f bytes\n", r.RenegedBytes)
	if res.Controller != nil {
		tm := res.Controller.Timings
		fmt.Fprintf(rc.out, "  module runs: RA=%d SAM=%d PC=%d\n", len(tm.RA), len(tm.SAM), len(tm.PC))
	}
	return nil
}

// export writes the files run reads: the setup's network and its load-1
// traffic-matrix series.
func export(rc *runCtx, sc exp.Scale, seed int64) error {
	if *topoPath == "" || *seriesPath == "" {
		return errors.New("needs -topology and -series")
	}
	s := exp.NewSetup(sc, exp.WithSeed(seed))
	if err := writeFile(*topoPath, s.Net.WriteCSV); err != nil {
		return err
	}
	if err := writeFile(*seriesPath, func(w io.Writer) error { return traffic.WriteSeriesCSV(w, s.Series) }); err != nil {
		return err
	}
	fmt.Fprintf(rc.out, "wrote %s (%d nodes, %d edges) and %s (%d steps)\n",
		*topoPath, s.Net.NumNodes(), s.Net.NumEdges(), *seriesPath, len(s.Series))
	return nil
}

func readFile[T any](path string, read func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return read(f)
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
