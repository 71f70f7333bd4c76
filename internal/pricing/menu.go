package pricing

import (
	"math"

	"pretium/internal/traffic"
)

// Segment is one flat-priced slice of a price menu: Bytes can be routed
// at Price per byte along Routes[RouteIdx] at timestep Time.
type Segment struct {
	Bytes    float64
	Price    float64
	RouteIdx int
	Time     int
}

// Menu is the price quote p_i(·) handed to a customer (§4.1): a
// non-decreasing, convex, piecewise-linear price schedule assembled from
// minimum-price (route, timestep) pairs. Cap() is x̄_i, the maximum
// transfer Pretium will guarantee; bytes beyond it are best-effort at the
// final marginal price.
type Menu struct {
	Segments []Segment
	capBytes float64
	// first backs Segments while the menu has one segment, as nearly
	// every menu does: quoting allocates the Menu and nothing else.
	first [1]Segment
}

// push appends a segment, starting in the inline storage. An empty menu
// keeps Segments nil.
func (m *Menu) push(s Segment) {
	if m.Segments == nil {
		m.Segments = m.first[:0]
	}
	m.Segments = append(m.Segments, s)
}

// Cap returns x̄_i, the guaranteed-routable volume quoted in this menu.
func (m *Menu) Cap() float64 { return m.capBytes }

// Price returns the total price p_i(x) to route x bytes. Beyond Cap the
// marginal price of the last segment extends (best-effort pricing Δ(x̄)).
// An empty menu prices any positive volume at +Inf — an unroutable
// request must never be quoted as free (it cannot be quoted at all).
func (m *Menu) Price(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if len(m.Segments) == 0 {
		return math.Inf(1)
	}
	total := 0.0
	remaining := x
	last := 0.0
	for _, s := range m.Segments {
		take := math.Min(remaining, s.Bytes)
		total += take * s.Price
		remaining -= take
		last = s.Price
		if remaining <= 0 {
			return total
		}
	}
	return total + remaining*last
}

// Marginal returns Δ_i(x): the price of the x-th byte.
func (m *Menu) Marginal(x float64) float64 {
	if len(m.Segments) == 0 {
		return math.Inf(1)
	}
	acc := 0.0
	for _, s := range m.Segments {
		acc += s.Bytes
		if x <= acc+1e-12 {
			return s.Price
		}
	}
	return m.Segments[len(m.Segments)-1].Price
}

// Purchase returns the utility-maximizing amount for a customer with
// value v per byte and demand d (Theorem 5.2): buy while the marginal
// price is at most v, up to d. An empty menu sells nothing.
func (m *Menu) Purchase(v, d float64) float64 {
	if d <= 0 || len(m.Segments) == 0 {
		return 0
	}
	bought := 0.0
	for _, s := range m.Segments {
		if s.Price > v {
			break
		}
		bought += s.Bytes
		if bought >= d {
			return d
		}
	}
	// Beyond Cap: best-effort bytes cost the final marginal price; a
	// rational customer takes them too when still below value. They are
	// not guaranteed, so risk-averse customers could decline; we model
	// the paper's risk-neutral customer.
	if bought >= m.capBytes {
		last := m.Segments[len(m.Segments)-1].Price
		if last <= v {
			return d
		}
	}
	if bought > d {
		bought = d
	}
	return bought
}

// QuoteMenu computes the price menu for req against the current state:
// repeatedly pick the cheapest (route, timestep) pair by summing the
// current per-edge marginal prices, allocate until an edge exhausts its
// price segment, and continue — yielding the minimum-price piecewise
// schedule of §4.1. The menu is truncated at maxBytes (quoting beyond the
// request's demand is pointless). The state is not modified.
//
// Segments come out in nondecreasing price order by construction
// (marginal prices only rise as segments fill). The work is done by the
// incremental heap engine (see Quoter); the original scan survives as
// the test suite's executable spec (quoteMenuReference in
// reference_test.go). Callers on the admission hot
// path should hold an Admitter (or Quoter) for scratch reuse; this free
// function draws from a shared pool.
func QuoteMenu(st *State, req *traffic.Request, maxBytes float64) *Menu {
	q := quoterPool.Get().(*Quoter)
	menu := q.Quote(st, req, maxBytes)
	quoterPool.Put(q)
	return menu
}

// Admission records the outcome of admitting one request.
type Admission struct {
	Request *traffic.Request
	Menu    *Menu
	// Bought is x_i, the customer's chosen transfer size.
	Bought float64
	// Guaranteed is g_i = min(x_i, x̄_i).
	Guaranteed float64
	// Payment is p_i(x_i), what the customer pays.
	Payment float64
	// Lambda is Δ_i(x_i): the marginal price at the purchase point, used
	// by SAM and the Price Computer as the value proxy.
	Lambda float64
	// Allocs is the preliminary schedule reserved for this request.
	Allocs []ReservedAlloc
}

// ReservedAlloc is one preliminary reservation.
type ReservedAlloc struct {
	RouteIdx int
	Time     int
	Bytes    float64
}
