// Package graph models the inter-datacenter WAN that Pretium schedules
// over: a directed graph of datacenter sites whose edges are WAN links with
// per-unit-time capacities (§3.1 of the paper). It also provides the
// admissible-route machinery (k-shortest loopless paths) used to build each
// request's route set R_i, and topology generators: the exact four-node
// network of the paper's Figure 2 and a region-structured synthetic WAN
// standing in for the 106-node production topology the paper measured.
package graph

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// NodeID identifies a node (datacenter or site) within a Network.
type NodeID int

// EdgeID identifies a directed link within a Network.
type EdgeID int

// Node is a datacenter or peering site.
type Node struct {
	ID     NodeID
	Name   string
	Region string
}

// Edge is a directed WAN link (or an egress link to an ISP).
type Edge struct {
	ID   EdgeID
	From NodeID
	To   NodeID
	// Capacity is the bandwidth available per timestep (bytes, in
	// whatever unit the experiment uses).
	Capacity float64
	// UsagePriced marks links charged by 95th-percentile usage (about
	// 15% of edges in the paper's WAN). Other links have fixed
	// installation costs excluded from the welfare objective.
	UsagePriced bool
	// CostPerUnit is C_e: the charge per unit of 95th-percentile usage
	// per window on a usage-priced link. Zero for owned links.
	CostPerUnit float64
}

// Network is a directed multigraph of WAN links. Construct with New and
// AddNode/AddEdge; a Network is immutable once handed to the scheduler.
type Network struct {
	nodes  []Node
	edges  []Edge
	out    [][]EdgeID // adjacency: outgoing edge IDs per node
	in     [][]EdgeID
	byName map[string]NodeID
	routes atomic.Pointer[routeMemo] // lazily built by KShortestPaths
}

// New returns an empty network.
func New() *Network {
	return &Network{byName: make(map[string]NodeID)}
}

// AddNode adds a node and returns its ID. Names must be unique; AddNode
// panics on duplicates since topology construction is programmer-driven.
func (n *Network) AddNode(name, region string) NodeID {
	if _, dup := n.byName[name]; dup {
		panic(fmt.Sprintf("graph: duplicate node name %q", name))
	}
	id := NodeID(len(n.nodes))
	n.nodes = append(n.nodes, Node{ID: id, Name: name, Region: region})
	n.out = append(n.out, nil)
	n.in = append(n.in, nil)
	n.byName[name] = id
	n.routes.Store(nil)
	return id
}

// AddEdge adds a directed link and returns its ID.
func (n *Network) AddEdge(from, to NodeID, capacity float64) EdgeID {
	if from == to {
		panic("graph: self-loop edge")
	}
	id := EdgeID(len(n.edges))
	n.edges = append(n.edges, Edge{ID: id, From: from, To: to, Capacity: capacity})
	n.out[from] = append(n.out[from], id)
	n.in[to] = append(n.in[to], id)
	n.routes.Store(nil)
	return id
}

// SetUsagePriced marks edge e as charged per unit of 95th-percentile usage.
func (n *Network) SetUsagePriced(e EdgeID, costPerUnit float64) {
	n.edges[e].UsagePriced = true
	n.edges[e].CostPerUnit = costPerUnit
}

// NumNodes reports the node count.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumEdges reports the edge count.
func (n *Network) NumEdges() int { return len(n.edges) }

// Node returns the node record for id.
func (n *Network) Node(id NodeID) Node { return n.nodes[id] }

// Edge returns the edge record for id.
func (n *Network) Edge(id EdgeID) Edge { return n.edges[id] }

// Edges returns all edges (shared slice; callers must not mutate).
func (n *Network) Edges() []Edge { return n.edges }

// Out returns the outgoing edges of node id (shared slice).
func (n *Network) Out(id NodeID) []EdgeID { return n.out[id] }

// NodeByName looks a node up by name.
func (n *Network) NodeByName(name string) (NodeID, bool) {
	id, ok := n.byName[name]
	return id, ok
}

// UsagePricedEdges returns the IDs of all usage-priced edges.
func (n *Network) UsagePricedEdges() []EdgeID {
	var ids []EdgeID
	for _, e := range n.edges {
		if e.UsagePriced {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// Path is a loop-free sequence of edges from a source to a target.
type Path []EdgeID

// Validate checks that p is a connected loop-free path from src to dst.
func (n *Network) Validate(p Path, src, dst NodeID) error {
	if len(p) == 0 {
		return errors.New("graph: empty path")
	}
	seen := map[NodeID]bool{src: true}
	cur := src
	for _, eid := range p {
		if int(eid) < 0 || int(eid) >= len(n.edges) {
			return fmt.Errorf("graph: path references unknown edge %d", eid)
		}
		e := n.edges[eid]
		if e.From != cur {
			return fmt.Errorf("graph: path disconnected at edge %d", eid)
		}
		if seen[e.To] {
			return fmt.Errorf("graph: path revisits node %d", e.To)
		}
		seen[e.To] = true
		cur = e.To
	}
	if cur != dst {
		return fmt.Errorf("graph: path ends at %d, want %d", cur, dst)
	}
	return nil
}

// equalPaths reports whether two paths are identical.
func equalPaths(a, b Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
