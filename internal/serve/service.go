// Package serve turns Pretium's request admission into a long-running
// concurrent service. Quoters read an epoch-swapped immutable snapshot
// lock-free; admissions quote and commit under one lock, in lock order,
// so the service is *exactly* equivalent — bit-identical decisions,
// prices, and room — to the serial pricing.Admitter replaying the
// arrivals in that order (see DESIGN.md §16 and the differential
// tests).
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pretium/internal/graph"
	"pretium/internal/obs"
	"pretium/internal/pricing"
	"pretium/internal/traffic"
)

// epoch is one immutable pricing generation. live is the published copy
// that admissions commit room into under the commit lock (pricing
// poisons every planning mutator on it); view is the sealed snapshot
// frozen at epoch start that quoters read with no lock at all (pricing
// poisons *every* mutator on it). The two share their planning arrays
// and own their room (pricing.State.Successor). Quotes against view are
// indicative — room moves as admissions land — but admissions re-quote
// against live under the lock, so decisions and payments are
// authoritative and exactly serial-equivalent.
type epoch struct {
	n    uint64
	live *pricing.State
	view *pricing.State
}

// Config parameterizes a Service.
type Config struct {
	// Obs receives service counters (serve.quotes, serve.admits,
	// serve.declines, serve.publishes, serve.epoch). Nil disables.
	Obs *obs.Metrics
}

// Service is the concurrent admission front-end (ROADMAP item 1): RA as
// a long-running server instead of a controller loop iteration.
//
//   - Quote is lock-free: one atomic epoch load plus a pooled quoter
//     pass over the sealed view.
//   - Admit takes the commit lock, quotes against the live state and
//     commits — the serial pricing.Admitter's own steps, so the result
//     is bit-identical to it fed the stream in lock order. One admission
//     costs about a microsecond, less than handing it to a second core
//     would.
//   - Publish builds the next epoch outside the commit lock and takes
//     it for the pointer swap — plus, when live room carries forward,
//     for the copy of that room. The epoch pointer moves only under the
//     lock, so no admission ever commits into a stale epoch.
type Service struct {
	net     *graph.Network
	horizon int

	mu  sync.Mutex     // the commit lock: admissions, and every epoch swap
	q   pricing.Quoter // admission quote scratch, owned by mu
	cur atomic.Pointer[epoch]

	pubMu sync.Mutex // serializes Publish: one successor in the making at a time

	mQuotes    *obs.Counter
	mAdmits    *obs.Counter
	mDeclines  *obs.Counter
	mPublishes *obs.Counter
	mEpoch     *obs.Gauge
}

// New wraps a freshly built pricing state into a service. The state
// must not have been published before; New publishes it as epoch 0 —
// from here on snapshot construction (Publish) is the only way planning
// inputs change.
func New(st *pricing.State, cfg Config) (*Service, error) {
	if st.Published() {
		return nil, fmt.Errorf("serve: state already published; New needs a fresh state")
	}
	s := &Service{net: st.Net, horizon: st.Horizon}
	if cfg.Obs != nil {
		s.mQuotes = cfg.Obs.Counter("serve.quotes")
		s.mAdmits = cfg.Obs.Counter("serve.admits")
		s.mDeclines = cfg.Obs.Counter("serve.declines")
		s.mPublishes = cfg.Obs.Counter("serve.publishes")
		s.mEpoch = cfg.Obs.Gauge("serve.epoch")
	}
	live, view, err := st.Successor(st)
	if err != nil {
		return nil, err
	}
	live.CarryRoom(view, st)
	st.MarkPublished() // the service's copy is the one that lives on
	s.cur.Store(&epoch{n: 0, live: live, view: view})
	return s, nil
}

// Horizon reports the pricing horizon in timesteps.
func (s *Service) Horizon() int { return s.horizon }

// Net returns the network the service admits over.
func (s *Service) Net() *graph.Network { return s.net }

// Epoch reports the current pricing epoch number.
func (s *Service) Epoch() uint64 { return s.cur.Load().n }

// Quote prices req against the current epoch's sealed view without
// admitting it. Lock-free: an atomic epoch load plus pooled quoter
// scratch. maxBytes <= 0 means req.Demand. The menu reflects room as of
// the epoch's start; Admit re-quotes authoritatively.
func (s *Service) Quote(req *traffic.Request, maxBytes float64) *pricing.Menu {
	menu, _ := s.quoteEpoch(req, maxBytes)
	return menu
}

// quoteEpoch is Quote plus the number of the epoch the menu was priced
// under — the one load both come from, so a concurrent publish cannot
// label a menu with its successor's number.
func (s *Service) quoteEpoch(req *traffic.Request, maxBytes float64) (*pricing.Menu, uint64) {
	ep := s.cur.Load()
	menu := pricing.QuoteMenu(ep.view, req, maxBytes)
	s.mQuotes.Inc()
	return menu, ep.n
}

// Admit runs the full admission for req: authoritative quote against
// the live state, Theorem 5.2 purchase, room commit, all under the
// commit lock. Returns nil when the customer declines. Safe for
// arbitrary concurrent callers; admissions take effect in lock order.
func (s *Service) Admit(req *traffic.Request) *pricing.Admission {
	adm, _ := s.admitEpoch(req)
	return adm
}

// admitEpoch is Admit plus the number of the epoch it committed into.
// The epoch is loaded under the lock, which every swap also holds: the
// live state it names stays current until the commit is done.
func (s *Service) admitEpoch(req *traffic.Request) (*pricing.Admission, uint64) {
	s.mu.Lock()
	ep := s.cur.Load()
	menu := s.q.Quote(ep.live, req, req.Demand)
	adm := pricing.Commit(ep.live, req, menu, menu.Purchase(req.Value, req.Demand))
	s.mu.Unlock()
	if adm != nil {
		s.mAdmits.Inc()
	} else {
		s.mDeclines.Inc()
	}
	return adm, ep.n
}

// AdmitAll replays a whole arrival stream through the service, in
// order: positionally identical to pricing.Admitter.AdmitAll on the
// same stream when nothing else admits meanwhile.
func (s *Service) AdmitAll(reqs []*traffic.Request) []*pricing.Admission {
	out := make([]*pricing.Admission, len(reqs))
	for i, r := range reqs {
		out[i] = s.Admit(r)
	}
	return out
}

// Publish installs the next pricing epoch. With a nil plan the current
// planning inputs and room carry forward (an epoch bump that refreshes
// the view). A non-nil plan's prices, set-asides, outage overlay, and
// adjustment config are adopted, and with adoptRoom also its
// reservation plan (SAM re-planned the schedule — the price-only PC
// refresh passes false, and admissions committed since the plan was
// built carry forward). Admissions stall only for the part that reads
// live room: nothing when the plan's room is adopted, one room copy and
// segment-cache rebuild when live room carries forward.
func (s *Service) Publish(plan *pricing.State, adoptRoom bool) error {
	_, err := s.publish(plan, adoptRoom)
	return err
}

// publish is Publish plus the number of the epoch it installed.
func (s *Service) publish(plan *pricing.State, adoptRoom bool) (uint64, error) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()

	// pubMu keeps the epoch still; the planning inputs of its live state
	// are immutable, so reading them needs no commit lock.
	old := s.cur.Load()
	if plan == nil {
		plan, adoptRoom = old.live, false
	}
	live, view, err := old.live.Successor(plan)
	if err != nil {
		return 0, err
	}
	if adoptRoom {
		live.CarryRoom(view, plan)
		s.mu.Lock()
	} else {
		s.mu.Lock()
		live.CarryRoom(view, old.live)
	}
	s.cur.Store(&epoch{n: old.n + 1, live: live, view: view})
	s.mu.Unlock()
	s.mPublishes.Inc()
	s.mEpoch.Set(float64(old.n + 1))
	return old.n + 1, nil
}

// DrainState returns a mutable deep copy of the live state taken
// between two admissions — the authoritative room/price picture at a
// quiescent point, for inspection, plan building and differential tests.
func (s *Service) DrainState() *pricing.State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur.Load().live.Clone()
}
