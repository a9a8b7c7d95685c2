// Package topo provides the network topology substrate for transiently
// secure update scheduling: switch identities, undirected switch
// graphs, simple-path utilities, and the topology generators
// used throughout the experiments (including the paper's Figure 1
// twelve-switch demo topology).
//
// Switches are identified by OpenFlow datapath IDs (NodeID). Graphs are
// small and dense enough that adjacency maps keep the code simple; the
// hot paths of the repository (schedule computation, verification) work
// on paths, not on the full graph.
package topo

import (
	"fmt"
	"sort"
)

// NodeID identifies a switch by its OpenFlow datapath ID. Hosts are not
// nodes; they attach to edge switches (see Host).
type NodeID uint64

// Host is an end host attached to an edge switch, as in the demo setup
// (h1 on s1, h2 on s12).
type Host struct {
	Name   string
	Attach NodeID
}

// Graph is an undirected multigraph-free switch topology. The zero
// value is an empty graph ready for use.
type Graph struct {
	nodes map[NodeID]bool
	adj   map[NodeID]map[NodeID]bool
	hosts []Host
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		nodes: make(map[NodeID]bool),
		adj:   make(map[NodeID]map[NodeID]bool),
	}
}

// AddNode inserts a switch. Adding an existing node is a no-op.
func (g *Graph) AddNode(n NodeID) {
	if g.nodes == nil {
		g.nodes = make(map[NodeID]bool)
		g.adj = make(map[NodeID]map[NodeID]bool)
	}
	if !g.nodes[n] {
		g.nodes[n] = true
		g.adj[n] = make(map[NodeID]bool)
	}
}

// AddLink inserts an undirected link, adding missing endpoints.
// Self-links are rejected.
func (g *Graph) AddLink(a, b NodeID) error {
	if a == b {
		return fmt.Errorf("topo: self-link on node %d", a)
	}
	g.AddNode(a)
	g.AddNode(b)
	g.adj[a][b] = true
	g.adj[b][a] = true
	return nil
}

// AddHost attaches a host to a switch that must already exist.
func (g *Graph) AddHost(h Host) error {
	if !g.nodes[h.Attach] {
		return fmt.Errorf("topo: host %q attaches to unknown switch %d", h.Name, h.Attach)
	}
	g.hosts = append(g.hosts, h)
	return nil
}

// Hosts returns the attached hosts in insertion order.
func (g *Graph) Hosts() []Host {
	out := make([]Host, len(g.hosts))
	copy(out, g.hosts)
	return out
}

// HasNode reports whether n is a switch of the graph.
func (g *Graph) HasNode(n NodeID) bool { return g.nodes[n] }

// NumNodes returns the switch count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Nodes returns all switches in ascending ID order.
func (g *Graph) Nodes() []NodeID {
	out := make([]NodeID, 0, len(g.nodes))
	for n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Neighbors returns the neighbors of n in ascending ID order.
func (g *Graph) Neighbors(n NodeID) []NodeID {
	out := make([]NodeID, 0, len(g.adj[n]))
	for m := range g.adj[n] {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
