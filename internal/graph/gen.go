package graph

import (
	"fmt"
	"math/rand"
)

// FourNodeExample builds the exact network of the paper's Figure 2: four
// datacenters A, B, C, D; directed links A->B, A->C, C->D, each with
// capacity 2 units per timestep. It returns the network and the node IDs.
func FourNodeExample() (*Network, map[string]NodeID) {
	n := New()
	ids := map[string]NodeID{
		"A": n.AddNode("A", "r0"),
		"B": n.AddNode("B", "r0"),
		"C": n.AddNode("C", "r0"),
		"D": n.AddNode("D", "r0"),
	}
	n.AddEdge(ids["A"], ids["B"], 2)
	n.AddEdge(ids["A"], ids["C"], 2)
	n.AddEdge(ids["C"], ids["D"], 2)
	return n, ids
}

// WANConfig parameterizes the synthetic region-structured WAN standing in
// for the paper's 106-node / 226-edge production topology. Defaults are
// sized so that every LP in the evaluation solves in seconds with the
// built-in simplex (see DESIGN.md, substitution table).
type WANConfig struct {
	// Regions is the number of geographic regions (e.g. US, EU, Asia).
	Regions int
	// NodesPerRegion is the number of datacenters per region.
	NodesPerRegion int
	// IntraCapacity is the mean capacity of intra-region links.
	IntraCapacity float64
	// InterCapacity is the mean capacity of inter-region links.
	InterCapacity float64
	// CapacityJitter is the relative +/- spread applied to capacities.
	CapacityJitter float64
	// UsagePricedFraction is the fraction of edges charged on
	// 95th-percentile usage (the paper reports ~15%).
	UsagePricedFraction float64
	// UnpricedInterFactor shrinks the capacity of inter-region links
	// that did NOT get usage pricing (default 1 = no shrink). Setting it
	// below 1 models the reality the paper describes: the big
	// inter-region pipes are the ones purchased from upstream providers
	// and charged on 95th-percentile usage, while owned cross-region
	// capacity is thin.
	UnpricedInterFactor float64
	// MeanUsageCost is the mean C_e of usage-priced edges.
	MeanUsageCost float64
	// Seed drives all randomness in the generator.
	Seed int64
}

// DefaultWANConfig returns the configuration used by the evaluation
// experiments: 3 regions x 4 datacenters, bidirectional ring plus chords
// within regions, gateway meshes between regions.
func DefaultWANConfig() WANConfig {
	return WANConfig{
		Regions:             3,
		NodesPerRegion:      4,
		IntraCapacity:       100,
		InterCapacity:       60,
		CapacityJitter:      0.3,
		UsagePricedFraction: 0.15,
		MeanUsageCost:       1.0,
		Seed:                1,
	}
}

// GenerateWAN builds the synthetic WAN. The topology is deterministic
// given the config (including Seed). Structure per region: a bidirectional
// ring over the region's nodes plus one chord, mirroring the sparse
// multi-path structure of production inter-DC WANs; the first two nodes of
// each region act as gateways with bidirectional links to the gateways of
// every other region. A share of edges — biased toward inter-region links,
// as in the paper where ISP-purchased egress links are the usage-priced
// ones — is marked 95th-percentile-priced.
func GenerateWAN(cfg WANConfig) *Network {
	if cfg.Regions < 1 || cfg.NodesPerRegion < 2 {
		panic("graph: WAN config needs >= 1 region and >= 2 nodes per region")
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	n := New()
	nodes := make([][]NodeID, cfg.Regions)
	for g := 0; g < cfg.Regions; g++ {
		region := fmt.Sprintf("region%d", g)
		nodes[g] = make([]NodeID, cfg.NodesPerRegion)
		for i := 0; i < cfg.NodesPerRegion; i++ {
			nodes[g][i] = n.AddNode(fmt.Sprintf("dc%d-%d", g, i), region)
		}
	}
	jitter := func(mean float64) float64 {
		return mean * (1 + cfg.CapacityJitter*(2*r.Float64()-1))
	}
	addBoth := func(a, b NodeID, mean float64) (EdgeID, EdgeID) {
		return n.AddEdge(a, b, jitter(mean)), n.AddEdge(b, a, jitter(mean))
	}
	var interEdges, intraEdges []EdgeID
	for g := 0; g < cfg.Regions; g++ {
		k := cfg.NodesPerRegion
		for i := 0; i < k; i++ {
			e1, e2 := addBoth(nodes[g][i], nodes[g][(i+1)%k], cfg.IntraCapacity)
			intraEdges = append(intraEdges, e1, e2)
		}
		if k >= 4 {
			e1, e2 := addBoth(nodes[g][0], nodes[g][k/2], cfg.IntraCapacity)
			intraEdges = append(intraEdges, e1, e2)
		}
	}
	for g := 0; g < cfg.Regions; g++ {
		for h := g + 1; h < cfg.Regions; h++ {
			gw := 2
			if cfg.NodesPerRegion < 2 {
				gw = 1
			}
			for i := 0; i < gw; i++ {
				e1, e2 := addBoth(nodes[g][i], nodes[h][i], cfg.InterCapacity)
				interEdges = append(interEdges, e1, e2)
			}
		}
	}
	// Usage-priced edges: draw mostly from inter-region links.
	total := n.NumEdges()
	want := int(cfg.UsagePricedFraction*float64(total) + 0.5)
	pool := append(append([]EdgeID(nil), interEdges...), intraEdges...)
	for i := 0; i < want && i < len(pool); i++ {
		cost := cfg.MeanUsageCost * (0.5 + r.Float64())
		n.SetUsagePriced(pool[i], cost)
	}
	if f := cfg.UnpricedInterFactor; f > 0 && f != 1 {
		for _, id := range interEdges {
			if !n.edges[id].UsagePriced {
				n.edges[id].Capacity *= f
			}
		}
	}
	return n
}

// PaperWAN builds a fixed topology with the exact dimensions the paper
// reports for the production inter-DC WAN: 106 datacenters and 226 directed
// links. The paper does not disclose the graph itself, so the structure is
// synthetic but shaped like a provider backbone: 8 regions of 12–14 nodes,
// each a hub-and-spoke star (98 undirected spoke links), with the 8 hubs
// meshed by 15 undirected backbone links (a 7-link tree plus 8 chords for
// path diversity). Every undirected link is a pair of directed edges:
// (98 + 15) * 2 = 226. About 15% of edges — backbone links first, as in the
// paper where ISP-purchased egress is the 95th-percentile-charged part —
// are usage-priced. Deterministic given seed.
func PaperWAN(seed int64) *Network {
	regionSizes := []int{14, 14, 14, 13, 13, 13, 13, 12} // = 106 nodes
	hubTree := [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 4}, {3, 5}, {4, 6}, {5, 7}}
	hubChords := [][2]int{{0, 7}, {1, 2}, {3, 4}, {5, 6}, {6, 7}, {1, 4}, {2, 5}, {0, 3}}

	const (
		intraCapacity  = 100.0
		interCapacity  = 60.0
		capacityJitter = 0.3
		pricedFraction = 0.15
		meanUsageCost  = 1.0
	)
	r := rand.New(rand.NewSource(seed))
	n := New()
	jitter := func(mean float64) float64 {
		return mean * (1 + capacityJitter*(2*r.Float64()-1))
	}
	hubs := make([]NodeID, len(regionSizes))
	for g, size := range regionSizes {
		region := fmt.Sprintf("region%d", g)
		hubs[g] = n.AddNode(fmt.Sprintf("hub%d", g), region)
		for i := 1; i < size; i++ {
			n.AddNode(fmt.Sprintf("dc%d-%d", g, i), region)
		}
	}
	var interEdges, intraEdges []EdgeID
	for g, size := range regionSizes {
		first := int(hubs[g])
		for i := 1; i < size; i++ {
			spoke := NodeID(first + i)
			intraEdges = append(intraEdges,
				n.AddEdge(hubs[g], spoke, jitter(intraCapacity)),
				n.AddEdge(spoke, hubs[g], jitter(intraCapacity)))
		}
	}
	for _, l := range append(append([][2]int(nil), hubTree...), hubChords...) {
		interEdges = append(interEdges,
			n.AddEdge(hubs[l[0]], hubs[l[1]], jitter(interCapacity)),
			n.AddEdge(hubs[l[1]], hubs[l[0]], jitter(interCapacity)))
	}
	want := int(pricedFraction*float64(n.NumEdges()) + 0.5)
	pool := append(append([]EdgeID(nil), interEdges...), intraEdges...)
	for i := 0; i < want && i < len(pool); i++ {
		n.SetUsagePriced(pool[i], meanUsageCost*(0.5+r.Float64()))
	}
	return n
}

// ScaleUsageCosts multiplies every usage-priced edge's C_e by factor; the
// Figure 12 sweep varies mean link cost this way.
func (n *Network) ScaleUsageCosts(factor float64) {
	for i := range n.edges {
		if n.edges[i].UsagePriced {
			n.edges[i].CostPerUnit *= factor
		}
	}
}

// Clone returns a deep copy of the network with an empty route memo.
func (n *Network) Clone() *Network {
	c := New()
	for _, nd := range n.nodes {
		c.AddNode(nd.Name, nd.Region)
	}
	for _, e := range n.edges {
		id := c.AddEdge(e.From, e.To, e.Capacity)
		if e.UsagePriced {
			c.SetUsagePriced(id, e.CostPerUnit)
		}
	}
	return c
}

// Regions returns the distinct region names in node order.
func (n *Network) Regions() []string {
	var out []string
	seen := map[string]bool{}
	for _, nd := range n.nodes {
		if !seen[nd.Region] {
			seen[nd.Region] = true
			out = append(out, nd.Region)
		}
	}
	return out
}

// SameRegion reports whether two nodes are in the same region (used by the
// RegionOracle baseline's two-tier pricing).
func (n *Network) SameRegion(a, b NodeID) bool {
	return n.nodes[a].Region == n.nodes[b].Region
}
