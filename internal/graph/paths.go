package graph

import (
	"slices"
	"sync"
	"sync/atomic"
)

// ShortestPath returns a minimum-hop path from src to dst, or nil when dst
// is unreachable. Ties break deterministically by edge ID so route sets
// are reproducible across runs. The path is the first of KShortestPaths
// and shared like it: callers must not mutate it.
func (n *Network) ShortestPath(src, dst NodeID) Path {
	if ps := n.KShortestPaths(src, dst, 1); len(ps) > 0 {
		return ps[0]
	}
	return nil
}

// KShortestPaths returns up to k loopless minimum-hop paths from src to
// dst using Yen's algorithm. The result is sorted by (length, edge
// sequence) and is deterministic. These form a request's admissible route
// set R_i (§3.1).
//
// R_i is a fixed function of (src, dst), so the answer is memoized per
// ordered pair: the first call for a pair runs Yen, later calls are two
// atomic loads. The returned slice and its paths are shared (callers must
// not mutate, as with Edges and Out) and safe for concurrent use. Yen's
// list for k is a prefix of its list for any larger k — nothing in the
// loop depends on k but termination — so one entry holding the longest
// list asked for so far serves every smaller k.
//
// Only AddNode and AddEdge reset the memo. Link cuts, drains and SRLG
// failures never invalidate it: they are capacity overlays on
// pricing.State (SetOutage), the topology object does not change after
// construction, and the controller's repair re-routes over a request's
// own Routes rather than searching afresh.
func (n *Network) KShortestPaths(src, dst NodeID, k int) []Path {
	nn := len(n.nodes)
	if k <= 0 || src == dst || src < 0 || dst < 0 || int(src) >= nn || int(dst) >= nn {
		return nil
	}
	m := n.routes.Load()
	if m == nil {
		// Lazily sized: N² pointers (89 KB on the 106-node WAN), filled
		// only for the pairs that are asked about.
		m = &routeMemo{entries: make([]atomic.Pointer[routeEntry], nn*nn)}
		if !n.routes.CompareAndSwap(nil, m) {
			m = n.routes.Load()
		}
	}
	slot := &m.entries[int(src)*nn+int(dst)]
	e := slot.Load()
	if !e.answers(k) {
		m.mu.Lock()
		if e = slot.Load(); !e.answers(k) {
			e = m.search.yen(n, src, dst, k)
			slot.Store(e)
		}
		m.mu.Unlock()
	}
	if len(e.paths) > k {
		return e.paths[:k:k]
	}
	return e.paths
}

// routeMemo is a Network's route table: one entry per ordered node pair,
// indexed src*N+dst. Hits are lock-free; misses serialize on mu, which
// also guards the search scratch.
type routeMemo struct {
	entries []atomic.Pointer[routeEntry]
	mu      sync.Mutex
	search  pathSearch
}

// routeEntry is immutable once stored. exhausted records that Yen ran out
// of candidates, so paths answers every k (an unreachable pair is the
// exhausted entry with no paths).
type routeEntry struct {
	paths     []Path
	exhausted bool
}

// answers reports whether the entry exists and holds Yen's full list for k.
func (e *routeEntry) answers(k int) bool {
	return e != nil && (e.exhausted || len(e.paths) >= k)
}

// pathSearch is the scratch one Yen run reuses across its spur searches:
// BFS state and the two ban sets, indexed by node or edge ID.
type pathSearch struct {
	prev       []EdgeID // edge each node was first reached by; unseen when < 0
	queue      []NodeID
	bannedNode []bool
	bannedEdge []bool
	banned     []EdgeID // edges set in bannedEdge for the current spur
	buf        Path     // root + spur under construction
}

const (
	unseen   EdgeID = -1
	bfsStart EdgeID = -2
)

// shortest runs a breadth-first search from the end of root to dst that
// avoids the banned nodes and edges, and returns root followed by the
// spur it found (in s.buf, valid until the next call), or nil. Edges
// have unit weight, so FIFO order is Dijkstra's order: a node is queued
// once, at its final distance, by the first edge to reach it — ties
// break toward the earliest-queued parent and then its lowest edge ID.
func (s *pathSearch) shortest(n *Network, root Path, from, dst NodeID) Path {
	for i := range s.prev {
		s.prev[i] = unseen
	}
	s.prev[from] = bfsStart
	s.queue = append(s.queue[:0], from)
	for head := 0; head < len(s.queue) && s.prev[dst] == unseen; head++ {
		for _, eid := range n.out[s.queue[head]] {
			to := n.edges[eid].To
			if s.prev[to] != unseen || s.bannedEdge[eid] || s.bannedNode[to] {
				continue
			}
			s.prev[to] = eid
			s.queue = append(s.queue, to)
		}
	}
	if s.prev[dst] == unseen {
		return nil
	}
	hops := 0
	for cur := dst; cur != from; cur = n.edges[s.prev[cur]].From {
		hops++
	}
	s.buf = append(append(s.buf[:0], root...), make(Path, hops)...)
	for cur, i := dst, len(s.buf)-1; cur != from; cur, i = n.edges[s.prev[cur]].From, i-1 {
		s.buf[i] = s.prev[cur]
	}
	return s.buf
}

// yen computes the first k loopless shortest paths from src to dst.
func (s *pathSearch) yen(n *Network, src, dst NodeID, k int) *routeEntry {
	if len(s.prev) != len(n.nodes) || len(s.bannedEdge) != len(n.edges) {
		s.prev = make([]EdgeID, len(n.nodes))
		s.bannedNode = make([]bool, len(n.nodes))
		s.bannedEdge = make([]bool, len(n.edges))
	}
	first := s.shortest(n, nil, src, dst)
	if first == nil {
		return &routeEntry{exhausted: true}
	}
	paths := []Path{slices.Clone(first)}
	var candidates []Path
	for len(paths) < k {
		last := paths[len(paths)-1]
		// Spur from every prefix of the last accepted path.
		for i := range last {
			spurNode := src
			if i > 0 {
				// The root's nodes before the spur node stay banned for
				// the rest of this path's spurs.
				s.bannedNode[n.edges[last[i-1]].From] = true
				spurNode = n.edges[last[i-1]].To
			}
			root := last[:i]
			for _, p := range paths {
				if len(p) > i && equalPaths(p[:i], root) {
					s.bannedEdge[p[i]] = true
					s.banned = append(s.banned, p[i])
				}
			}
			total := s.shortest(n, root, spurNode, dst)
			for _, eid := range s.banned {
				s.bannedEdge[eid] = false
			}
			s.banned = s.banned[:0]
			if total != nil && !containsPath(paths, total) && !containsPath(candidates, total) {
				candidates = append(candidates, slices.Clone(total))
			}
		}
		for _, eid := range last[:len(last)-1] {
			s.bannedNode[n.edges[eid].From] = false
		}
		if len(candidates) == 0 {
			return &routeEntry{paths: slices.Clip(paths), exhausted: true}
		}
		// Candidates are distinct and pathLess is a total order on
		// distinct paths, so the next path is the unique minimum and the
		// order of the rest does not matter.
		best := 0
		for c := 1; c < len(candidates); c++ {
			if pathLess(candidates[c], candidates[best]) {
				best = c
			}
		}
		paths = append(paths, candidates[best])
		candidates[best] = candidates[len(candidates)-1]
		candidates = candidates[:len(candidates)-1]
	}
	return &routeEntry{paths: slices.Clip(paths)}
}

// pathLess orders paths by length, then by edge sequence.
func pathLess(a, b Path) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return slices.Compare(a, b) < 0
}

func containsPath(ps []Path, p Path) bool {
	for _, q := range ps {
		if equalPaths(q, p) {
			return true
		}
	}
	return false
}
