package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func diamond() (*Network, NodeID, NodeID) {
	// s -> a -> t, s -> b -> t, plus long path s -> a -> b -> t.
	n := New()
	s := n.AddNode("s", "r")
	a := n.AddNode("a", "r")
	b := n.AddNode("b", "r")
	t := n.AddNode("t", "r")
	n.AddEdge(s, a, 10)
	n.AddEdge(a, t, 10)
	n.AddEdge(s, b, 10)
	n.AddEdge(b, t, 10)
	n.AddEdge(a, b, 10)
	return n, s, t
}

func TestAddNodeDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for duplicate node")
		}
	}()
	n := New()
	n.AddNode("x", "r")
	n.AddNode("x", "r")
}

func TestAddEdgeSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for self loop")
		}
	}()
	n := New()
	a := n.AddNode("a", "r")
	n.AddEdge(a, a, 1)
}

func TestAccessors(t *testing.T) {
	n, s, _ := diamond()
	if n.NumNodes() != 4 || n.NumEdges() != 5 {
		t.Fatalf("counts = %d nodes, %d edges", n.NumNodes(), n.NumEdges())
	}
	if n.Node(s).Name != "s" {
		t.Errorf("Node(s).Name = %q", n.Node(s).Name)
	}
	if id, ok := n.NodeByName("s"); !ok || id != s {
		t.Errorf("NodeByName failed")
	}
	if _, ok := n.NodeByName("zzz"); ok {
		t.Errorf("NodeByName found ghost node")
	}
	if len(n.Out(s)) != 2 {
		t.Errorf("Out(s) = %v", n.Out(s))
	}
	if len(n.Edges()) != 5 {
		t.Errorf("Edges() wrong length")
	}
}

func TestUsagePriced(t *testing.T) {
	n, s, _ := diamond()
	e := n.Out(s)[0]
	n.SetUsagePriced(e, 2.5)
	got := n.UsagePricedEdges()
	if len(got) != 1 || got[0] != e {
		t.Fatalf("UsagePricedEdges = %v", got)
	}
	if n.Edge(e).CostPerUnit != 2.5 {
		t.Errorf("CostPerUnit = %v", n.Edge(e).CostPerUnit)
	}
	n.ScaleUsageCosts(2)
	if n.Edge(e).CostPerUnit != 5 {
		t.Errorf("after scale CostPerUnit = %v", n.Edge(e).CostPerUnit)
	}
}

func TestShortestPath(t *testing.T) {
	n, s, dst := diamond()
	p := n.ShortestPath(s, dst)
	if len(p) != 2 {
		t.Fatalf("shortest path length = %d, want 2", len(p))
	}
	if err := n.Validate(p, s, dst); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	n := New()
	a := n.AddNode("a", "r")
	b := n.AddNode("b", "r")
	if p := n.ShortestPath(a, b); p != nil {
		t.Errorf("expected nil path, got %v", p)
	}
	if p := n.ShortestPath(a, a); p != nil {
		t.Errorf("src == dst should give nil, got %v", p)
	}
}

func TestKShortestPaths(t *testing.T) {
	n, s, dst := diamond()
	ps := n.KShortestPaths(s, dst, 5)
	// Diamond has exactly 3 loopless paths: s-a-t, s-b-t, s-a-b-t.
	if len(ps) != 3 {
		t.Fatalf("got %d paths, want 3: %v", len(ps), ps)
	}
	if len(ps[0]) != 2 || len(ps[1]) != 2 || len(ps[2]) != 3 {
		t.Errorf("path lengths = %d,%d,%d", len(ps[0]), len(ps[1]), len(ps[2]))
	}
	for i, p := range ps {
		if err := n.Validate(p, s, dst); err != nil {
			t.Errorf("path %d invalid: %v", i, err)
		}
		for j := i + 1; j < len(ps); j++ {
			if equalPaths(p, ps[j]) {
				t.Errorf("paths %d and %d identical", i, j)
			}
		}
	}
}

func TestKShortestPathsK1AndK0(t *testing.T) {
	n, s, dst := diamond()
	if ps := n.KShortestPaths(s, dst, 1); len(ps) != 1 {
		t.Errorf("k=1 gave %d paths", len(ps))
	}
	if ps := n.KShortestPaths(s, dst, 0); ps != nil {
		t.Errorf("k=0 gave %v", ps)
	}
}

func TestKShortestDeterministic(t *testing.T) {
	n, s, dst := diamond()
	a := n.KShortestPaths(s, dst, 3)
	b := n.KShortestPaths(s, dst, 3)
	for i := range a {
		if !equalPaths(a[i], b[i]) {
			t.Fatalf("nondeterministic k-shortest results")
		}
	}
}

func TestValidateErrors(t *testing.T) {
	n, s, dst := diamond()
	if err := n.Validate(nil, s, dst); err == nil {
		t.Error("empty path should fail")
	}
	if err := n.Validate(Path{99}, s, dst); err == nil {
		t.Error("unknown edge should fail")
	}
	// Disconnected: edge a->t does not start at s.
	at := n.Out(NodeID(1))[0]
	if err := n.Validate(Path{at}, s, dst); err == nil {
		t.Error("disconnected path should fail")
	}
	// Wrong endpoint.
	sa := n.Out(s)[0]
	if err := n.Validate(Path{sa}, s, dst); err == nil {
		t.Error("path ending early should fail")
	}
}

func TestFourNodeExample(t *testing.T) {
	n, ids := FourNodeExample()
	if n.NumNodes() != 4 || n.NumEdges() != 3 {
		t.Fatalf("four-node example has %d nodes, %d edges", n.NumNodes(), n.NumEdges())
	}
	for _, e := range n.Edges() {
		if e.Capacity != 2 {
			t.Errorf("edge %d capacity = %v, want 2", e.ID, e.Capacity)
		}
	}
	// A->D must route via C in two hops.
	p := n.ShortestPath(ids["A"], ids["D"])
	if len(p) != 2 {
		t.Errorf("A->D path = %v", p)
	}
	// B unreachable from D.
	if p := n.ShortestPath(ids["D"], ids["B"]); p != nil {
		t.Errorf("D->B should be unreachable")
	}
}

func TestGenerateWANShape(t *testing.T) {
	cfg := DefaultWANConfig()
	n := GenerateWAN(cfg)
	if n.NumNodes() != cfg.Regions*cfg.NodesPerRegion {
		t.Fatalf("nodes = %d", n.NumNodes())
	}
	if n.NumEdges() == 0 {
		t.Fatal("no edges")
	}
	// Usage-priced fraction close to configured.
	up := len(n.UsagePricedEdges())
	frac := float64(up) / float64(n.NumEdges())
	if frac < cfg.UsagePricedFraction-0.1 || frac > cfg.UsagePricedFraction+0.1 {
		t.Errorf("usage-priced fraction = %v, want ~%v", frac, cfg.UsagePricedFraction)
	}
	// All capacities positive; every pair of nodes connected.
	for _, e := range n.Edges() {
		if e.Capacity <= 0 {
			t.Errorf("edge %d capacity %v", e.ID, e.Capacity)
		}
	}
	for a := 0; a < n.NumNodes(); a++ {
		for b := 0; b < n.NumNodes(); b++ {
			if a == b {
				continue
			}
			if p := n.ShortestPath(NodeID(a), NodeID(b)); p == nil {
				t.Fatalf("no path %d -> %d", a, b)
			}
		}
	}
}

func TestGenerateWANDeterministic(t *testing.T) {
	a := GenerateWAN(DefaultWANConfig())
	b := GenerateWAN(DefaultWANConfig())
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("edge counts differ")
	}
	for i := range a.Edges() {
		ea, eb := a.Edge(EdgeID(i)), b.Edge(EdgeID(i))
		if ea != eb {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ea, eb)
		}
	}
}

func TestGenerateWANBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	GenerateWAN(WANConfig{Regions: 0, NodesPerRegion: 2})
}

func TestPaperWANShape(t *testing.T) {
	n := PaperWAN(1)
	if n.NumNodes() != 106 {
		t.Fatalf("nodes = %d, want 106 (paper topology)", n.NumNodes())
	}
	if n.NumEdges() != 226 {
		t.Fatalf("edges = %d, want 226 (paper topology)", n.NumEdges())
	}
	if got := len(n.Regions()); got != 8 {
		t.Fatalf("regions = %d, want 8", got)
	}
	up := len(n.UsagePricedEdges())
	frac := float64(up) / float64(n.NumEdges())
	if frac < 0.10 || frac > 0.20 {
		t.Errorf("usage-priced fraction = %v, want ~0.15", frac)
	}
	for _, e := range n.Edges() {
		if e.Capacity <= 0 {
			t.Errorf("edge %d capacity %v", e.ID, e.Capacity)
		}
	}
	// Strongly connected: spokes reach their hub, hubs mesh via the tree.
	for a := 0; a < n.NumNodes(); a += 7 {
		for b := 0; b < n.NumNodes(); b += 11 {
			if a == b {
				continue
			}
			if p := n.ShortestPath(NodeID(a), NodeID(b)); p == nil {
				t.Fatalf("no path %d -> %d", a, b)
			}
		}
	}
	// Deterministic for a fixed seed.
	m := PaperWAN(1)
	for i := range n.Edges() {
		if n.Edge(EdgeID(i)) != m.Edge(EdgeID(i)) {
			t.Fatalf("edge %d differs between identical seeds", i)
		}
	}
}

func TestRegionsAndSameRegion(t *testing.T) {
	n := GenerateWAN(DefaultWANConfig())
	regs := n.Regions()
	if len(regs) != 3 {
		t.Fatalf("regions = %v", regs)
	}
	if !n.SameRegion(0, 1) {
		t.Error("nodes 0,1 should share a region")
	}
	if n.SameRegion(0, NodeID(n.NumNodes()-1)) {
		t.Error("first and last node should differ in region")
	}
}

// Property: every path returned by KShortestPaths on random connected
// graphs validates, is loopless, and path lengths are nondecreasing.
func TestKShortestPathsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := New()
		nn := 4 + r.Intn(6)
		for i := 0; i < nn; i++ {
			n.AddNode(string(rune('a'+i)), "r")
		}
		// Random edges plus a guaranteed chain for connectivity.
		for i := 0; i+1 < nn; i++ {
			n.AddEdge(NodeID(i), NodeID(i+1), 1)
		}
		for e := 0; e < nn*2; e++ {
			a, b := r.Intn(nn), r.Intn(nn)
			if a != b {
				n.AddEdge(NodeID(a), NodeID(b), 1)
			}
		}
		src, dst := NodeID(0), NodeID(nn-1)
		ps := n.KShortestPaths(src, dst, 6)
		if len(ps) == 0 {
			return false // chain guarantees reachability
		}
		for i, p := range ps {
			if n.Validate(p, src, dst) != nil {
				return false
			}
			if i > 0 && len(p) < len(ps[i-1]) {
				return false
			}
			for j := i + 1; j < len(ps); j++ {
				if equalPaths(p, ps[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
