// Package traffic models Pretium's workload: customer transfer requests
// (§3.1) and the traffic-matrix time-series they are synthesized from.
//
// The paper's evaluation replays a month-long NetFlow trace from a
// production inter-DC WAN, converted to a time-series of traffic matrices
// from which requests "that closely mimic the observed traffic matrix
// time-series" are generated with configurable value and deadline
// distributions (§6.1). The trace is proprietary, so this package
// implements the same pipeline over a synthetic matrix generator with the
// published statistical shape: strong diurnal periodicity, large per-link
// heterogeneity (Figure 1's 90th/10th percentile ratios), and short-term
// flash crowds.
package traffic

import (
	"fmt"
	"math"

	"pretium/internal/graph"
)

// Kind distinguishes the two request types Pretium serves.
type Kind int8

// Request kinds.
const (
	// ByteRequest moves Demand bytes within [Start, End].
	ByteRequest Kind = iota
	// RateRequest needs Rate units of bandwidth in every timestep of
	// [Start, End] (handled as a sequence of per-timestep byte requests,
	// §4.4).
	RateRequest
	// ScavengerRequest is the best-effort class of §4.4: the customer
	// names their own per-byte price (the Value field) and Pretium
	// schedules the transfer on residual capacity with no guarantee,
	// charging the named price per delivered byte.
	ScavengerRequest
)

func (k Kind) String() string {
	switch k {
	case RateRequest:
		return "rate"
	case ScavengerRequest:
		return "scavenger"
	}
	return "byte"
}

// Request is one customer transfer request.
type Request struct {
	ID  int
	Src graph.NodeID
	Dst graph.NodeID
	// Routes is the admissible route set R_i.
	Routes []graph.Path
	// Arrival is the timestep a_i at which the request becomes known to
	// the provider (a_i <= Start).
	Arrival int
	// Start and End bound the allowed transfer interval [t1_i, t2_i],
	// inclusive on both ends.
	Start, End int
	// Demand is d_i, the total bytes requested (for rate requests this
	// is Rate times the interval length).
	Demand float64
	// Rate is the per-timestep bandwidth for RateRequest.
	Rate float64
	Kind Kind
	// Value is v_i, the customer's private value per byte. The provider
	// never reads this field directly; it only observes the customer's
	// purchase decision (Theorem 5.2).
	Value float64
}

// Window returns the number of timesteps in the allowed interval.
func (r *Request) Window() int { return r.End - r.Start + 1 }

// Validate checks internal consistency — finite numbers included — and that
// every route connects Src to Dst in the network.
func (r *Request) Validate(n *graph.Network) error {
	if r.Start > r.End {
		return fmt.Errorf("traffic: request %d has start %d > end %d", r.ID, r.Start, r.End)
	}
	if r.Arrival < 0 {
		return fmt.Errorf("traffic: request %d arrives at negative step %d", r.ID, r.Arrival)
	}
	if r.Arrival > r.Start {
		return fmt.Errorf("traffic: request %d arrives at %d after start %d", r.ID, r.Arrival, r.Start)
	}
	if r.Demand < 0 {
		return fmt.Errorf("traffic: request %d has negative demand", r.ID)
	}
	for _, v := range [...]float64{r.Demand, r.Value, r.Rate} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("traffic: request %d has non-finite demand, value or rate", r.ID)
		}
	}
	if len(r.Routes) == 0 {
		return fmt.Errorf("traffic: request %d has no admissible routes", r.ID)
	}
	for _, p := range r.Routes {
		if err := n.Validate(p, r.Src, r.Dst); err != nil {
			return fmt.Errorf("traffic: request %d: %w", r.ID, err)
		}
	}
	if r.Kind == RateRequest && r.Rate <= 0 {
		return fmt.Errorf("traffic: rate request %d has rate %v", r.ID, r.Rate)
	}
	return nil
}

// Matrix is one timestep's traffic matrix: Demand[src][dst] is the volume
// originating at src toward dst during that step.
type Matrix struct {
	Demand [][]float64
}

// NewMatrix returns an n x n zero matrix.
func NewMatrix(n int) Matrix {
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	return Matrix{Demand: d}
}

// Total returns the sum of all entries.
func (m Matrix) Total() float64 {
	t := 0.0
	for _, row := range m.Demand {
		for _, v := range row {
			t += v
		}
	}
	return t
}

// Scale multiplies every entry by f in place (the paper's load factor).
func (m Matrix) Scale(f float64) {
	for _, row := range m.Demand {
		for j := range row {
			row[j] *= f
		}
	}
}

// Series is a traffic-matrix time-series, one Matrix per timestep.
type Series []Matrix

// Scale applies the load factor to every timestep.
func (s Series) Scale(f float64) {
	for _, m := range s {
		m.Scale(f)
	}
}

// Clone returns a deep copy of the series.
func (s Series) Clone() Series {
	c := make(Series, len(s))
	for t, m := range s {
		c[t] = NewMatrix(len(m.Demand))
		for i, row := range m.Demand {
			copy(c[t].Demand[i], row)
		}
	}
	return c
}

// LinkUtilization routes every matrix entry along the network's shortest
// path and returns usage[edge][t], the per-link per-timestep load. It is
// how Figure 1's utilization statistics are derived from the trace (the
// real trace already carries per-link loads; shortest-path routing is the
// closest stand-in).
func LinkUtilization(n *graph.Network, s Series) [][]float64 {
	usage := make([][]float64, n.NumEdges())
	for e := range usage {
		usage[e] = make([]float64, len(s))
	}
	for t, m := range s {
		for src, row := range m.Demand {
			for dst, v := range row {
				if v == 0 || src == dst {
					continue
				}
				for _, eid := range n.ShortestPath(graph.NodeID(src), graph.NodeID(dst)) {
					usage[eid][t] += v
				}
			}
		}
	}
	return usage
}
