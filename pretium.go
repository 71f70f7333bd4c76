// Package pretium is an open-source implementation of Pretium, the
// framework of Jalaparti et al., "Dynamic Pricing and Traffic Engineering
// for Timely Inter-Datacenter Transfers" (SIGCOMM 2016): joint dynamic
// pricing and traffic engineering for inter-datacenter WAN transfers.
//
// A provider instantiates a Network (the WAN graph with per-link
// capacities and 95th-percentile usage charges), then runs a Controller
// over a stream of Requests. Per the paper's three-module design
// (Figure 3):
//
//   - the request admission interface quotes each arriving request a
//     convex price menu assembled from per-(link, timestep) internal
//     prices, guarantees up to x̄ bytes by the deadline, and reserves a
//     preliminary schedule on minimum-price paths;
//   - the schedule adjustment module re-optimizes the forward plan every
//     timestep under percentile-cost-aware welfare (the top-k
//     sorting-network encoding of §4.2);
//   - the price computer refreshes internal prices from the duals of an
//     offline welfare LP over recent history (§4.3).
//
// Everything is built on the standard library, including the bounded
// revised-simplex LP solver in internal/lp that stands in for the paper's
// Gurobi dependency.
//
// # Quick start
//
//	net := pretium.GenerateWAN(pretium.DefaultWANConfig())
//	series := pretium.GenerateTraffic(net, pretium.DefaultTrafficConfig(48))
//	reqs := pretium.SynthesizeRequests(net, series, pretium.DefaultRequestConfig())
//	ctl, err := pretium.NewController(net, reqs, pretium.DefaultConfig(48))
//	if err != nil { ... }
//	outcome, err := ctl.Run()
//	report, err := pretium.Evaluate(net, reqs, outcome, pretium.DefaultCostConfig(24))
//
// See examples/ for runnable programs and internal/exp for the harness
// that regenerates every table and figure of the paper's evaluation.
package pretium

import (
	"io"
	"net/http"

	"pretium/internal/core"
	"pretium/internal/cost"
	"pretium/internal/graph"
	"pretium/internal/obs"
	"pretium/internal/pricing"
	"pretium/internal/serve"
	"pretium/internal/sim"
	"pretium/internal/traffic"
)

// Network is the WAN graph: datacenters and directed capacitated links.
type Network = graph.Network

// NodeID and EdgeID identify nodes and links of a Network.
type (
	NodeID = graph.NodeID
	EdgeID = graph.EdgeID
)

// Path is a loop-free route through the network.
type Path = graph.Path

// WANConfig parameterizes the synthetic region-structured WAN generator.
type WANConfig = graph.WANConfig

// Request is one customer transfer request (byte or rate, §3.1).
type Request = traffic.Request

// Request kinds.
const (
	ByteRequest = traffic.ByteRequest
	RateRequest = traffic.RateRequest
)

// TrafficConfig parameterizes the traffic-matrix generator; Series is its
// output; RequestConfig turns a Series into a request stream.
type (
	TrafficConfig = traffic.GenConfig
	Series        = traffic.Series
	RequestConfig = traffic.RequestConfig
)

// Config parameterizes the Pretium controller (all three modules).
type Config = core.Config

// Controller runs Pretium over a request stream.
type Controller = core.Controller

// Outcome is the realized result of a run; Report the derived metrics
// (welfare, profit, completion).
type (
	Outcome = sim.Outcome
	Report  = sim.Report
)

// Menu is a request's price quote: a convex piecewise-linear price
// schedule with a guarantee cap x̄ (§4.1).
type Menu = pricing.Menu

// PriceState is the shared network state (prices + reservations).
type PriceState = pricing.State

// CostConfig is the percentile charging rule for usage-priced links.
type CostConfig = cost.Config

// New returns an empty network to build topologies by hand.
func New() *Network { return graph.New() }

// DefaultWANConfig returns the default synthetic WAN parameters.
func DefaultWANConfig() WANConfig { return graph.DefaultWANConfig() }

// GenerateWAN builds a deterministic region-structured WAN.
func GenerateWAN(cfg WANConfig) *Network { return graph.GenerateWAN(cfg) }

// FourNodeExample builds the worked example of the paper's Figure 2.
func FourNodeExample() (*Network, map[string]NodeID) { return graph.FourNodeExample() }

// DefaultTrafficConfig returns generator settings calibrated to the
// paper's Figure 1 utilization statistics.
func DefaultTrafficConfig(steps int) TrafficConfig { return traffic.DefaultGenConfig(steps) }

// GenerateTraffic produces a traffic-matrix time-series.
func GenerateTraffic(n *Network, cfg TrafficConfig) Series { return traffic.Generate(n, cfg) }

// DefaultRequestConfig returns request-synthesis settings.
func DefaultRequestConfig() RequestConfig { return traffic.DefaultRequestConfig() }

// SynthesizeRequests converts a traffic series into a request stream.
func SynthesizeRequests(n *Network, s Series, cfg RequestConfig) []*Request {
	return traffic.Synthesize(n, s, cfg)
}

// DefaultConfig returns the full Pretium configuration for a horizon.
func DefaultConfig(horizon int) Config { return core.DefaultConfig(horizon) }

// DefaultCostConfig returns the paper's 95th-percentile charging rule
// with the top-10% proxy over windows of the given length.
func DefaultCostConfig(windowLen int) CostConfig { return cost.DefaultConfig(windowLen) }

// NewController creates a Pretium controller over a request stream.
func NewController(n *Network, reqs []*Request, cfg Config) (*Controller, error) {
	return core.New(n, reqs, cfg)
}

// Evaluate computes welfare, profit, and completion metrics for an
// outcome, charging the exact (non-convex) percentile costs.
func Evaluate(n *Network, reqs []*Request, o *Outcome, costCfg CostConfig) (Report, error) {
	return sim.Evaluate(n, reqs, o, costCfg)
}

// QuoteMenu computes a request's price menu against a price state without
// admitting it — the raw §4.1 quoting primitive for custom integrations.
// Callers serving a stream of requests should hold an Admitter instead,
// which reuses the quoting scratch across calls.
func QuoteMenu(st *PriceState, req *Request, maxBytes float64) *Menu {
	return pricing.QuoteMenu(st, req, maxBytes)
}

// Admitter is the batched request-admission front-end: it binds a price
// state to reusable quoting scratch so streams of arrivals are quoted,
// purchased, and reserved without per-request allocation beyond the
// returned records. Admission is what an admission record reports.
type (
	Admitter  = pricing.Admitter
	Admission = pricing.Admission
)

// NewAdmitter creates an admission front-end serving quotes against st.
// Not safe for concurrent use; hold one Admitter + state per goroutine.
func NewAdmitter(st *PriceState) *Admitter { return pricing.NewAdmitter(st) }

// NewPriceState creates a standalone price state (for quoting outside a
// Controller).
func NewPriceState(n *Network, horizon int, basePrice float64) *PriceState {
	return pricing.NewState(n, horizon, basePrice)
}

// Service is the concurrent admission front-end: RA as a long-running
// server. Quotes are lock-free against an epoch-swapped immutable
// snapshot; admissions quote and commit under one lock, so the result
// stream is bit-identical to a serial Admitter fed the arrivals in lock
// order. ServiceConfig sets the metrics registry.
type (
	Service       = serve.Service
	ServiceConfig = serve.Config
)

// Metrics is the observability registry service counters land in.
type Metrics = obs.Metrics

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// NewService wraps a freshly built price state into a concurrent
// admission service; the state is published as epoch 0 and from then on
// Service.Publish is the only way planning inputs change.
func NewService(st *PriceState, cfg ServiceConfig) (*Service, error) { return serve.New(st, cfg) }

// ServiceHandler returns the HTTP/JSON transport over a Service
// (/v1/quote, /v1/admit, /v1/publish, /v1/state, /metrics) — what
// cmd/pretium-serve listens with.
func ServiceHandler(svc *Service, m *Metrics) http.Handler { return serve.Handler(svc, m) }

// ReadTopologyCSV parses a network previously written with
// (*Network).WriteCSV, letting the whole pipeline run on user-supplied
// topologies.
func ReadTopologyCSV(r io.Reader) (*Network, error) { return graph.ReadCSV(r) }

// WriteTraceCSV and ReadTraceCSV persist traffic-matrix series — the
// paper replays recorded traces, and so can this implementation.
func WriteTraceCSV(w io.Writer, s Series) error { return traffic.WriteSeriesCSV(w, s) }

// ReadTraceCSV parses a series written by WriteTraceCSV.
func ReadTraceCSV(r io.Reader) (Series, error) { return traffic.ReadSeriesCSV(r) }

// WriteRequestsCSV and ReadRequestsCSV persist request streams (routes
// are rebuilt as k-shortest paths on load).
func WriteRequestsCSV(w io.Writer, reqs []*Request) error {
	return traffic.WriteRequestsCSV(w, reqs)
}

// ReadRequestsCSV parses requests written by WriteRequestsCSV.
func ReadRequestsCSV(r io.Reader, n *Network, routesPerRequest int) ([]*Request, error) {
	return traffic.ReadRequestsCSV(r, n, routesPerRequest)
}
