// Command pretium-serve runs the concurrent admission service as a
// long-lived HTTP front-end: the RA module of the paper turned into a
// server (ROADMAP item 1). It builds a synthetic WAN at the chosen
// experiment scale, wraps it in the internal/serve service, and
// exposes the thin JSON API:
//
//	POST /v1/quote   — price a transfer without admitting it
//	POST /v1/admit   — binding admission (menu, Theorem 5.2 purchase, commit)
//	POST /v1/publish — install the next pricing epoch (SAM/PC's job)
//	GET  /v1/state   — epoch and topology summary
//	GET  /metrics    — obs registry snapshot
//
// Usage:
//
//	pretium-serve -addr :8080 -scale small
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pretium/internal/exp"
	"pretium/internal/obs"
	"pretium/internal/pricing"
	"pretium/internal/serve"
)

func main() {
	var (
		addr  = flag.String("addr", ":8080", "listen address")
		scale = flag.String("scale", "small", "experiment scale: small, default, medium, or paper")
		price = flag.Float64("price", 1.0, "initial uniform base price")
		seed  = flag.Int64("seed", 1, "topology seed")
	)
	flag.Parse()

	sc, err := scaleByName(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	setup := exp.NewSetup(sc, exp.WithSeed(*seed))
	m := obs.NewMetrics()
	svc, err := serve.New(pricing.NewState(setup.Net, sc.Steps, *price), serve.Config{Obs: m})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	log.Printf("pretium-serve: %d nodes, %d edges, horizon %d; listening on %s",
		setup.Net.NumNodes(), setup.Net.NumEdges(), sc.Steps, *addr)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           serve.Handler(svc, m),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	// SIGINT/SIGTERM stop accepting and let in-flight requests finish: an
	// admission that has committed room always gets its reply out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		done <- srv.Shutdown(shutCtx)
	}()
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	if err := <-done; err != nil {
		log.Fatalf("pretium-serve: shutdown: %v", err)
	}
	log.Printf("pretium-serve: shut down at epoch %d", svc.Epoch())
}

// Slow or stalled clients must not hold connections open forever. The
// bodies are small (serve caps them), so seconds are generous.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 15 * time.Second
	idleTimeout       = 2 * time.Minute
	shutdownGrace     = 10 * time.Second
)

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
