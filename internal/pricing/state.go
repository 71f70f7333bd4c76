// Package pricing implements Pretium's price machinery: the shared
// network-state data structure (per-link per-timestep internal prices plus
// the forward reservation plan), the request-admission price menus of
// §4.1, the short-term congestion adjustment, and the Price Computer of
// §4.3 that refreshes internal prices from the duals of an offline
// welfare LP.
package pricing

import (
	"fmt"

	"pretium/internal/graph"
)

// AdjustConfig is the short-term price adjustment of §4.1: once a link's
// reserved share crosses Threshold, further bytes are priced at Factor
// times the base price ("double the price of the last 20% of the link
// capacity"). Pricing the *remaining* segment this way is functionally
// the paper's equivalent formulation of splitting each link into parallel
// links with different prices.
type AdjustConfig struct {
	// Threshold is the utilization fraction at which the premium
	// segment begins (paper example: 0.8).
	Threshold float64
	// Factor multiplies the base price on the premium segment (paper
	// example: 2).
	Factor float64
}

// DefaultAdjust returns the paper's example rule: double the price of the
// last 20% of capacity.
func DefaultAdjust() AdjustConfig { return AdjustConfig{Threshold: 0.8, Factor: 2} }

// State is the network state shared by Pretium's three modules (Figure
// 3): internal prices {P_{e,t}}, the forward plan of reserved bandwidth,
// and the capacity churn removes. Timesteps are absolute indices in
// [0, Horizon).
//
// The state additionally maintains a dense per-(edge, timestep) cache of
// the current price segment — marginal price and remaining room at zero
// overlay — so the admission fast path reads arrays instead of
// recomputing the premium rule per candidate. Every mutator below keeps
// the cache coherent incrementally; code that writes the exported
// matrices directly must call Invalidate afterwards (or use
// SetBasePrice), or quotes will see stale segments.
type State struct {
	Net     *graph.Network
	Horizon int
	// BasePrice[e][t] is the internal per-byte price P_{e,t} maintained
	// by the Price Computer.
	BasePrice [][]float64
	// Reserved[e][t] is bandwidth committed to admitted requests.
	Reserved [][]float64
	Adjust   AdjustConfig

	// segPrice and segRoom cache MarginalPrice(e, t, 0) and
	// segmentRoom(e, t, 0) flattened as [e*Horizon+t]. They are always
	// valid between mutator calls.
	segPrice []float64
	segRoom  []float64

	// Edge-outage overlay: capacity removed from (edge, step) by topology
	// churn — link cuts, maintenance drains, correlated failures, flaps.
	// The overlay is *physical*: realized transfers clamp to the
	// surviving capacity too. outTotal holds one total per cell,
	// flattened [e*Horizon+t]; outVer counts its effective writes.
	outTotal []float64
	outVer   uint64

	// mut is the publication lifecycle stage (see publish.go). Once a
	// state is shared with concurrent readers, the Invalidate contract for
	// direct matrix writers is unenforceable — a write plus a cache rebuild
	// cannot be atomic against lock-free quotes — so every mutator poisons
	// itself past the stage that makes it unsafe: planning mutators panic
	// on a published state, and Reserve (the serialized room commit of the
	// admission service) additionally panics on a sealed one.
	mut mutStage
}

// NewState creates a state with uniform initial prices. Usage-priced
// edges start at basePrice plus their per-unit cost so that, before any
// history exists, quotes already cover marginal cost.
func NewState(net *graph.Network, horizon int, basePrice float64) *State {
	s := &State{
		Net:     net,
		Horizon: horizon,
		Adjust:  DefaultAdjust(),
	}
	ne := net.NumEdges()
	s.BasePrice = newMatrix(ne, horizon)
	s.Reserved = newMatrix(ne, horizon)
	for _, e := range net.Edges() {
		p := basePrice
		if e.UsagePriced {
			p += e.CostPerUnit
		}
		for t := 0; t < horizon; t++ {
			s.BasePrice[e.ID][t] = p
		}
	}
	s.segPrice = make([]float64, ne*horizon)
	s.segRoom = make([]float64, ne*horizon)
	s.outTotal = make([]float64, ne*horizon)
	s.Invalidate()
	return s
}

// newMatrix returns a zeroed [rows][cols] matrix on one backing array.
func newMatrix(rows, cols int) [][]float64 {
	m := make([][]float64, rows)
	buf := make([]float64, rows*cols)
	for i := range m {
		m[i] = buf[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return m
}

// SetOutage sets the churn overlay on (e, t): down units of capacity are
// out of service. The overlay is one total per cell; composing several
// outages into it is the writer's job (chaos.Plan sums them), so down may
// exceed the physical capacity — Capacity saturates at zero on read.
// Negative and NaN values are stored as 0, out-of-range steps ignored, and
// only a write that changes the cell counts as a mutation.
func (s *State) SetOutage(e graph.EdgeID, t int, down float64) {
	s.guardPlan("SetOutage")
	if t < 0 || t >= s.Horizon {
		return
	}
	if !(down > 0) {
		down = 0
	}
	idx := int(e)*s.Horizon + t
	if s.outTotal[idx] == down {
		return
	}
	s.outTotal[idx] = down
	s.outVer++
	s.refreshSeg(e, t)
}

// OutageAt returns the churn-removed capacity on (e, t). Stacked outages
// can exceed the physical capacity; Capacity clamps at zero.
func (s *State) OutageAt(e graph.EdgeID, t int) float64 {
	return s.outTotal[int(e)*s.Horizon+t]
}

// OutageVersion counts effective outage-overlay mutations. The control
// loop compares versions across steps to detect topology churn and run
// guarantee repair only when the overlay actually moved.
func (s *State) OutageVersion() uint64 { return s.outVer }

// Invalidate rebuilds the whole segment cache from the exported matrices.
// Call it after writing BasePrice / Reserved entries directly;
// the mutator methods keep the cache coherent on their own.
func (s *State) Invalidate() {
	s.guardPlan("Invalidate")
	for e := range s.Reserved {
		for t := range s.Reserved[e] {
			s.refreshSeg(graph.EdgeID(e), t)
		}
	}
}

// refreshSeg recomputes the cached segment entry for (e, t): both rules
// at zero overlay, off one capacity read.
func (s *State) refreshSeg(e graph.EdgeID, t int) {
	i := int(e)*s.Horizon + t
	cap, used := s.Capacity(e, t), s.Reserved[e][t]
	s.segPrice[i] = s.Adjust.marginal(s.BasePrice[e][t], cap, used)
	s.segRoom[i] = s.Adjust.room(cap, used)
}

// SetBasePrice overwrites one internal price entry, keeping the segment
// cache coherent (bulk updates come from SetPricesWindow).
func (s *State) SetBasePrice(e graph.EdgeID, t int, price float64) {
	s.guardPlan("SetBasePrice")
	s.BasePrice[e][t] = price
	s.refreshSeg(e, t)
}

// Capacity returns the bandwidth available to scheduled traffic on edge e
// at time t (raw capacity minus any churn outage).
func (s *State) Capacity(e graph.EdgeID, t int) float64 {
	c := s.Net.Edge(e).Capacity
	if out := s.outTotal[int(e)*s.Horizon+t]; out > 0 {
		c -= out
	}
	if c < 0 {
		return 0
	}
	return c
}

// MarginalPrice returns the price of the next byte on (e, t) given
// current reservations plus extra pending bytes: the base price, or the
// adjusted premium once utilization crosses the threshold. With no
// overlay it is a single cached array read.
func (s *State) MarginalPrice(e graph.EdgeID, t int, extra float64) float64 {
	if extra == 0 {
		return s.segPrice[int(e)*s.Horizon+t]
	}
	return s.marginalAt(e, t, extra)
}

// marginalAt is the premium rule on (e, t) with extra pending bytes.
func (s *State) marginalAt(e graph.EdgeID, t int, extra float64) float64 {
	return s.Adjust.marginal(s.BasePrice[e][t], s.Capacity(e, t), s.Reserved[e][t]+extra)
}

// marginal is the premium rule itself (the cache's source of truth): the
// price of the next byte on a cell of capacity cap with used bytes taken.
func (a AdjustConfig) marginal(base, cap, used float64) float64 {
	if cap <= 0 || used >= a.Threshold*cap {
		return base * a.Factor
	}
	return base
}

// segmentRoom returns how many more bytes fit on (e, t) at the *current*
// marginal price before either the premium threshold or capacity is hit.
// With no overlay it is a single cached array read.
func (s *State) segmentRoom(e graph.EdgeID, t int, extra float64) float64 {
	if extra == 0 {
		return s.segRoom[int(e)*s.Horizon+t]
	}
	return s.roomAt(e, t, extra)
}

// roomAt is the segment-room rule on (e, t) with extra pending bytes.
func (s *State) roomAt(e graph.EdgeID, t int, extra float64) float64 {
	return s.Adjust.room(s.Capacity(e, t), s.Reserved[e][t]+extra)
}

// room is the segment-room rule itself (the cache's source of truth):
// the bytes that fit at the current marginal price before the premium
// threshold or capacity is hit.
func (a AdjustConfig) room(cap, used float64) float64 {
	room := cap - used
	if room <= 0 {
		return 0
	}
	thresh := a.Threshold * cap
	if used < thresh && thresh-used < room {
		return thresh - used
	}
	return room
}

// Reserve commits amount bytes on every edge of route at time t. It is
// the one mutation still legal on a *published* state — the admission
// service serializes room commits — but panics on a sealed one.
func (s *State) Reserve(route graph.Path, t int, amount float64) {
	s.guardRoom("Reserve")
	for _, e := range route {
		s.Reserved[e][t] += amount
		s.refreshSeg(e, t)
	}
}

// SetReserved replaces the whole reservation plan (used after SAM
// re-optimizes the forward schedule so RA quotes see the updated plan).
func (s *State) SetReserved(usage [][]float64) error {
	s.guardPlan("SetReserved")
	if len(usage) != s.Net.NumEdges() {
		return fmt.Errorf("pricing: reservation matrix has %d edges, want %d", len(usage), s.Net.NumEdges())
	}
	for e := range usage {
		if len(usage[e]) != s.Horizon {
			return fmt.Errorf("pricing: reservation row %d has %d steps, want %d", e, len(usage[e]), s.Horizon)
		}
		copy(s.Reserved[e], usage[e])
	}
	s.Invalidate()
	return nil
}

// SetPricesWindow overwrites BasePrice for absolute steps [from, from+len)
// from the given window, tiling the window forward until the horizon (the
// Price Computer carries the reference window's prices into following
// windows, §4.3).
func (s *State) SetPricesWindow(from int, window [][]float64) error {
	s.guardPlan("SetPricesWindow")
	if len(window) != s.Net.NumEdges() {
		return fmt.Errorf("pricing: price window has %d edges, want %d", len(window), s.Net.NumEdges())
	}
	w := 0
	for e := range window {
		if w == 0 {
			w = len(window[e])
		}
		if len(window[e]) != w {
			return fmt.Errorf("pricing: ragged price window")
		}
	}
	if w == 0 {
		return fmt.Errorf("pricing: empty price window")
	}
	for t := from; t < s.Horizon; t++ {
		idx := (t - from) % w
		for e := range window {
			s.BasePrice[e][t] = window[e][idx]
			s.refreshSeg(graph.EdgeID(e), t)
		}
	}
	return nil
}
