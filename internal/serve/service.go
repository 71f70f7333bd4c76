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
// that sequenced admissions commit room into (pricing poisons every
// planning mutator on it); view is a sealed clone frozen at epoch start
// that quoters read with no lock at all (pricing poisons *every*
// mutator on it). Quotes against view are indicative — room moves as
// admissions land — but admissions re-quote against live at their
// sequenced turn, so decisions and payments are authoritative and
// exactly serial-equivalent.
type epoch struct {
	n    uint64
	live *pricing.State
	view *pricing.State
}

// shard owns the quote scratch for one (src-region, dst-region) class
// of requests. The mutex serializes use of the scratch; cross-shard
// commit ordering is the sequencer's job, not the shard's.
type shard struct {
	mu sync.Mutex
	q  pricing.Quoter
}

// Config parameterizes a Service.
type Config struct {
	// Shards is the number of admission shards the (src-region,
	// dst-region) classes hash onto. Values < 1 mean 1.
	Shards int
	// Obs receives service counters (serve.quotes, serve.admits,
	// serve.declines, serve.publishes, serve.epoch). Nil disables.
	Obs *obs.Metrics
}

// Service is the concurrent admission front-end (ROADMAP item 1): RA as
// a long-running server instead of a controller loop iteration.
//
//   - Quote is lock-free: one atomic epoch load plus a pooled quoter
//     pass over the sealed view.
//   - Admit takes a per-edge ticket (see sequencer), re-quotes against
//     the live state at its turn, and commits — bit-identical to the
//     serial pricing.Admitter fed the same stream.
//   - Publish installs the next epoch behind a drain barrier: a ticket
//     on every edge, so in-flight admissions against epoch N settle
//     before N+1's room exists, and no admission ever commits into a
//     stale epoch.
type Service struct {
	net     *graph.Network
	horizon int

	shards     []shard
	nodeRegion []int32 // NodeID -> region index
	nRegions   int

	seq      *sequencer
	allEdges []graph.EdgeID
	cur      atomic.Pointer[epoch]
	pubMu    sync.Mutex // serializes Publish/DrainState

	edgePool sync.Pool // *[]graph.EdgeID route-union scratch

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
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	net := st.Net
	s := &Service{
		net:     net,
		horizon: st.Horizon,
		shards:  make([]shard, cfg.Shards),
		seq:     newSequencer(net.NumEdges()),
	}
	s.nodeRegion = make([]int32, net.NumNodes())
	regions := make(map[string]int32)
	for i := 0; i < net.NumNodes(); i++ {
		r := net.Node(graph.NodeID(i)).Region
		ri, ok := regions[r]
		if !ok {
			ri = int32(len(regions))
			regions[r] = ri
		}
		s.nodeRegion[i] = ri
	}
	s.nRegions = len(regions)
	s.allEdges = make([]graph.EdgeID, net.NumEdges())
	for e := range s.allEdges {
		s.allEdges[e] = graph.EdgeID(e)
	}
	s.edgePool.New = func() any {
		b := make([]graph.EdgeID, 0, 16)
		return &b
	}
	if cfg.Obs != nil {
		s.mQuotes = cfg.Obs.Counter("serve.quotes")
		s.mAdmits = cfg.Obs.Counter("serve.admits")
		s.mDeclines = cfg.Obs.Counter("serve.declines")
		s.mPublishes = cfg.Obs.Counter("serve.publishes")
		s.mEpoch = cfg.Obs.Gauge("serve.epoch")
	}

	view := st.Clone()
	st.MarkPublished()
	view.Seal()
	s.cur.Store(&epoch{n: 0, live: st, view: view})
	return s, nil
}

// NumShards reports the shard count.
func (s *Service) NumShards() int { return len(s.shards) }

// Horizon reports the pricing horizon in timesteps.
func (s *Service) Horizon() int { return s.horizon }

// Net returns the network the service admits over.
func (s *Service) Net() *graph.Network { return s.net }

// Epoch reports the current pricing epoch number.
func (s *Service) Epoch() uint64 { return s.cur.Load().n }

// View returns the current epoch's sealed snapshot: safe for concurrent
// reads, poisoned against every mutation.
func (s *Service) View() *pricing.State { return s.cur.Load().view }

// shardIndex maps a request to its (src-region, dst-region) shard.
func (s *Service) shardIndex(req *traffic.Request) int {
	key := int(s.nodeRegion[req.Src])*s.nRegions + int(s.nodeRegion[req.Dst])
	return key % len(s.shards)
}

// routeEdges appends the deduplicated union of req's route edges to buf.
// Route sets are small (k routes of a few hops), so the quadratic dedup
// beats sorting and allocates nothing.
func routeEdges(req *traffic.Request, buf []graph.EdgeID) []graph.EdgeID {
	buf = buf[:0]
	for _, route := range req.Routes {
		for _, e := range route {
			seen := false
			for _, x := range buf {
				if x == e {
					seen = true
					break
				}
			}
			if !seen {
				buf = append(buf, e)
			}
		}
	}
	return buf
}

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

// Admit runs the full admission for req: sequenced turn on every edge
// of its route union, authoritative quote against the live state,
// Theorem 5.2 purchase, room commit. Returns nil when the customer
// declines. Safe for arbitrary concurrent callers; commits on any one
// (edge, step) cell happen in ticket order, which is this method's call
// order.
func (s *Service) Admit(req *traffic.Request) *pricing.Admission {
	adm, _ := s.admitEpoch(req)
	return adm
}

// admitEpoch is Admit plus the number of the epoch it committed into.
func (s *Service) admitEpoch(req *traffic.Request) (*pricing.Admission, uint64) {
	bufp := s.edgePool.Get().(*[]graph.EdgeID)
	edges := routeEdges(req, *bufp)
	*bufp = edges

	tk, ready := s.seq.acquire(edges)
	if !ready {
		s.seq.wait(tk, edges)
	}
	adm, epoch := s.admitSequenced(req)
	s.seq.settle(edges)
	s.edgePool.Put(bufp)
	return adm, epoch
}

// admitSequenced executes the quote+commit at the caller's sequenced
// turn. The epoch is loaded *after* the turn is held: any earlier
// publish barrier has already swapped the pointer before settling, so
// the loaded live state is never stale.
func (s *Service) admitSequenced(req *traffic.Request) (*pricing.Admission, uint64) {
	ep := s.cur.Load()
	sh := &s.shards[s.shardIndex(req)]
	sh.mu.Lock()
	menu := sh.q.Quote(ep.live, req, req.Demand)
	adm := pricing.Commit(ep.live, req, menu, menu.Purchase(req.Value, req.Demand))
	sh.mu.Unlock()
	if adm != nil {
		s.mAdmits.Inc()
	} else {
		s.mDeclines.Inc()
	}
	return adm, ep.n
}

// AdmitAll replays a whole arrival stream through the service: tickets
// are assigned in stream order, then each shard's requests run on their
// own goroutine — edge-disjoint admissions proceed in parallel while
// every (edge, step) cell still sees commits in stream order. The
// result is positionally identical to pricing.Admitter.AdmitAll on the
// same stream.
func (s *Service) AdmitAll(reqs []*traffic.Request) []*pricing.Admission {
	out := make([]*pricing.Admission, len(reqs))
	type item struct {
		idx   int
		req   *traffic.Request
		tk    uint64
		edges []graph.EdgeID
	}
	buckets := make([][]item, len(s.shards))
	for i, r := range reqs {
		edges := routeEdges(r, nil)
		tk, _ := s.seq.acquire(edges)
		buckets[s.shardIndex(r)] = append(buckets[s.shardIndex(r)], item{i, r, tk, edges})
	}
	var wg sync.WaitGroup
	for si := range buckets {
		if len(buckets[si]) == 0 {
			continue
		}
		wg.Add(1)
		go func(items []item) {
			defer wg.Done()
			for _, it := range items {
				s.seq.wait(it.tk, it.edges)
				out[it.idx], _ = s.admitSequenced(it.req)
				s.seq.settle(it.edges)
			}
		}(buckets[si])
	}
	wg.Wait()
	return out
}

// Publish installs the next pricing epoch. The new live state starts
// from the current one (room carries forward); when plan is non-nil its
// prices, set-asides, outage overlay, and adjustment config are adopted,
// and with adoptRoom also its reservation plan (SAM re-planned the
// schedule — the price-only PC refresh passes false). The whole build
// happens inside a drain barrier over every edge: in-flight admissions
// against the old epoch settle first, queued ones run against the new
// state, and nothing ever commits into a stale epoch.
func (s *Service) Publish(plan *pricing.State, adoptRoom bool) error {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()

	tk, ready := s.seq.acquire(s.allEdges)
	if !ready {
		s.seq.wait(tk, s.allEdges)
	}
	defer s.seq.settle(s.allEdges)

	old := s.cur.Load()
	next := old.live.Clone()
	if plan != nil {
		if err := next.CopyPricingFrom(plan, adoptRoom); err != nil {
			return err
		}
	}
	view := next.Clone()
	next.MarkPublished()
	view.Seal()
	s.cur.Store(&epoch{n: old.n + 1, live: next, view: view})
	s.mPublishes.Inc()
	s.mEpoch.Set(float64(old.n + 1))
	return nil
}

// DrainState waits for all in-flight admissions to settle and returns a
// mutable deep copy of the live state — the authoritative room/price
// picture at a quiescent point, for inspection and differential tests.
func (s *Service) DrainState() *pricing.State {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	tk, ready := s.seq.acquire(s.allEdges)
	if !ready {
		s.seq.wait(tk, s.allEdges)
	}
	st := s.cur.Load().live.Clone()
	s.seq.settle(s.allEdges)
	return st
}
