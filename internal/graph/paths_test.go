package graph

import (
	"container/heap"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// ---- reference: the heap-and-map Yen that KShortestPaths replaced ----
//
// Kept verbatim (names aside) as the differential oracle: Dijkstra over
// unit weights on a container/heap ordered by (dist, seq), fresh ban maps
// per spur, a stable sort of the candidates per round, no memo.

func refShortestPath(n *Network, src, dst NodeID, bannedEdges map[EdgeID]bool, bannedNodes map[NodeID]bool) Path {
	if src == dst {
		return nil
	}
	if bannedNodes[src] || bannedNodes[dst] {
		return nil
	}
	dist := make([]int, len(n.nodes))
	prev := make([]EdgeID, len(n.nodes))
	for i := range dist {
		dist[i] = -1
		prev[i] = -1
	}
	pq := &refHeap{}
	seq := 0
	heap.Push(pq, refHeapItem{node: src, dist: 0, seq: seq})
	dist[src] = 0
	for pq.Len() > 0 {
		it := heap.Pop(pq).(refHeapItem)
		if it.dist > dist[it.node] && dist[it.node] >= 0 {
			continue
		}
		if it.node == dst {
			break
		}
		for _, eid := range n.out[it.node] {
			if bannedEdges[eid] {
				continue
			}
			e := n.edges[eid]
			if bannedNodes[e.To] {
				continue
			}
			nd := it.dist + 1
			if dist[e.To] < 0 || nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = eid
				seq++
				heap.Push(pq, refHeapItem{node: e.To, dist: nd, seq: seq})
			}
		}
	}
	if dist[dst] < 0 {
		return nil
	}
	var rev Path
	for cur := dst; cur != src; {
		eid := prev[cur]
		rev = append(rev, eid)
		cur = n.edges[eid].From
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

type refHeapItem = struct {
	node NodeID
	dist int
	seq  int
}

type refHeap []refHeapItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refHeapItem)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func refKShortestPaths(n *Network, src, dst NodeID, k int) []Path {
	if k <= 0 {
		return nil
	}
	first := refShortestPath(n, src, dst, nil, nil)
	if first == nil {
		return nil
	}
	paths := []Path{first}
	var candidates []Path
	for len(paths) < k {
		last := paths[len(paths)-1]
		for i := 0; i < len(last); i++ {
			spurNode := src
			if i > 0 {
				spurNode = n.edges[last[i-1]].To
			}
			rootPath := last[:i]

			bannedEdges := make(map[EdgeID]bool)
			for _, p := range paths {
				if len(p) > i && equalPaths(p[:i], rootPath) {
					bannedEdges[p[i]] = true
				}
			}
			bannedNodes := make(map[NodeID]bool)
			cur := src
			for _, eid := range rootPath {
				bannedNodes[cur] = true
				cur = n.edges[eid].To
			}
			spur := refShortestPath(n, spurNode, dst, bannedEdges, bannedNodes)
			if spur == nil {
				continue
			}
			total := make(Path, 0, len(rootPath)+len(spur))
			total = append(total, rootPath...)
			total = append(total, spur...)
			dup := false
			for _, p := range append(paths, candidates...) {
				if equalPaths(p, total) {
					dup = true
					break
				}
			}
			if !dup {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.SliceStable(candidates, func(a, b int) bool {
			if len(candidates[a]) != len(candidates[b]) {
				return len(candidates[a]) < len(candidates[b])
			}
			for x := range candidates[a] {
				if candidates[a][x] != candidates[b][x] {
					return candidates[a][x] < candidates[b][x]
				}
			}
			return false
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths
}

// ---- differential and memo tests ----

// comparePairs checks KShortestPaths against the reference on every
// ordered pair of n for each k, including order within the list.
func comparePairs(t *testing.T, name string, n *Network, ks ...int) {
	t.Helper()
	for a := 0; a < n.NumNodes(); a++ {
		for b := 0; b < n.NumNodes(); b++ {
			for _, k := range ks {
				got := n.KShortestPaths(NodeID(a), NodeID(b), k)
				want := refKShortestPaths(n, NodeID(a), NodeID(b), k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %d->%d k=%d:\n got %v\nwant %v", name, a, b, k, got, want)
				}
			}
		}
	}
}

func TestKShortestPathsMatchesReferencePaperWAN(t *testing.T) {
	// k ascending also exercises the memo's extend-on-larger-k path on
	// every pair; TestKShortestPathsPrefixProperty asks the largest k cold.
	comparePairs(t, "PaperWAN", PaperWAN(1), 1, 3, 8)
}

// genSeedConfig is a small region-structured WAN per seed.
func genSeedConfig(seed int64) WANConfig {
	cfg := DefaultWANConfig()
	cfg.Regions = 2 + int(seed%3)
	cfg.NodesPerRegion = 3 + int(seed%4)
	cfg.Seed = seed
	return cfg
}

func TestKShortestPathsMatchesReferenceGenerated(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		n := GenerateWAN(genSeedConfig(seed))
		if seed == 20 {
			// Disconnected: an island pair nothing else links to, and a
			// sink reachable but with no way out.
			x := n.AddNode("island-x", "island")
			y := n.AddNode("island-y", "island")
			n.AddEdge(x, y, 1)
			n.AddEdge(0, n.AddNode("sink", "island"), 1)
		}
		comparePairs(t, "seed", n, 1, 3, 8)
	}
}

func TestKShortestPathsPrefixProperty(t *testing.T) {
	small, large := PaperWAN(2), PaperWAN(2)
	for a := 0; a < small.NumNodes(); a += 3 {
		for b := 0; b < small.NumNodes(); b += 2 {
			src, dst := NodeID(a), NodeID(b)
			// Ask small then large on one network, large only on the other.
			k3 := small.KShortestPaths(src, dst, 3)
			grown := small.KShortestPaths(src, dst, 8)
			k8 := large.KShortestPaths(src, dst, 8)
			if !reflect.DeepEqual(grown, k8) {
				t.Fatalf("%d->%d: ask-3-then-8 %v differs from ask-8 %v", a, b, grown, k8)
			}
			if want := k8[:min(3, len(k8))]; len(k3) != len(want) || (len(want) > 0 && !reflect.DeepEqual(k3, want)) {
				t.Fatalf("%d->%d: KSP(3) %v is not a prefix of KSP(8) %v", a, b, k3, k8)
			}
			// A smaller k after the larger one is served from the same entry.
			if again := small.KShortestPaths(src, dst, 3); len(again) > 0 && &again[0] != &grown[0] {
				t.Fatalf("%d->%d: k=3 after k=8 was not served as a prefix of the memo entry", a, b)
			}
		}
	}
}

func TestKShortestPathsOutOfRangeAndCappedSlices(t *testing.T) {
	n, s, dst := diamond()
	for _, p := range [][2]NodeID{{-1, dst}, {s, -1}, {NodeID(n.NumNodes()), dst}, {s, NodeID(n.NumNodes())}, {s, s}} {
		if ps := n.KShortestPaths(p[0], p[1], 3); ps != nil {
			t.Fatalf("KShortestPaths(%d, %d) = %v, want nil", p[0], p[1], ps)
		}
	}
	// A caller appending to its result must not reach the shared entry.
	all := n.KShortestPaths(s, dst, 5)
	one := n.KShortestPaths(s, dst, 1)
	if cap(one) != 1 || cap(all) != len(all) {
		t.Fatalf("shared slices not capped: cap(one)=%d cap(all)=%d len(all)=%d", cap(one), cap(all), len(all))
	}
}

// TestRouteMemoConcurrent hammers one cold pair and a set of disjoint cold
// pairs from 8 goroutines: everyone must get the very same shared slices.
// Run under -race (make check) this is the memo's publication test.
func TestRouteMemoConcurrent(t *testing.T) {
	n := PaperWAN(3)
	const workers = 8
	hot := make([][]Path, workers)
	own := make([][]Path, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				hot[g] = n.KShortestPaths(5, 90, 3)
				own[g] = n.KShortestPaths(NodeID(10+g), NodeID(60+g), 3)
				n.KShortestPaths(NodeID(10+g), NodeID(60+(g+1)%workers), 1+i%8)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 0; g < workers; g++ {
		if len(hot[g]) != 3 || &hot[g][0] != &hot[0][0] {
			t.Fatalf("worker %d got a different slice for the shared pair", g)
		}
		if want := refKShortestPaths(n, NodeID(10+g), NodeID(60+g), 3); !reflect.DeepEqual(own[g], want) {
			t.Fatalf("worker %d: own pair %v, want %v", g, own[g], want)
		}
	}
}

func TestRouteMemoInvalidatedByTopologyChange(t *testing.T) {
	n := New()
	a := n.AddNode("a", "r")
	b := n.AddNode("b", "r")
	c := n.AddNode("c", "r")
	n.AddEdge(a, b, 1)
	n.AddEdge(b, c, 1)
	if ps := n.KShortestPaths(a, c, 3); len(ps) != 1 || len(ps[0]) != 2 {
		t.Fatalf("before: %v", ps)
	}
	direct := n.AddEdge(a, c, 1)
	if ps := n.KShortestPaths(a, c, 3); len(ps) != 2 || len(ps[0]) != 1 || ps[0][0] != direct {
		t.Fatalf("AddEdge did not invalidate the memo: %v", ps)
	}
	d := n.AddNode("d", "r")
	if ps := n.KShortestPaths(a, d, 1); ps != nil {
		t.Fatalf("unreachable new node: %v", ps)
	}
	n.AddEdge(c, d, 1)
	if ps := n.KShortestPaths(a, d, 1); len(ps) != 1 || len(ps[0]) != 2 {
		t.Fatalf("AddNode+AddEdge did not invalidate the memo: %v", ps)
	}
}

// ---- benchmarks ----

var benchPaths []Path

// BenchmarkKShortestPaths: cold is a memo miss (one BFS-based Yen run,
// k=3, over a spread of PaperWAN pairs); hit is the request path.
func BenchmarkKShortestPaths(b *testing.B) {
	n := PaperWAN(1)
	nn := n.NumNodes()
	pair := func(i int) (NodeID, NodeID) {
		src := i * 37 % nn
		return NodeID(src), NodeID((src + 1 + i*11%(nn-1)) % nn)
	}
	b.Run("PaperWAN_cold", func(b *testing.B) {
		var s pathSearch
		s.yen(n, 0, 1, 3) // size the scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src, dst := pair(i)
			benchPaths = s.yen(n, src, dst, 3).paths
		}
	})
	b.Run("PaperWAN_hit", func(b *testing.B) {
		for i := 0; i < 512; i++ {
			src, dst := pair(i)
			n.KShortestPaths(src, dst, 3)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src, dst := pair(i % 512)
			benchPaths = n.KShortestPaths(src, dst, 3)
		}
	})
}
