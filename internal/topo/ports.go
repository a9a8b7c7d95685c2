package topo

import "slices"

// PortMap assigns deterministic OpenFlow port numbers to every switch's
// attachments: ports 1..k go to the switch's neighbors in ascending
// node-ID order, followed by one port per attached host in host
// insertion order. Both the controller (computing FlowMod output
// actions) and the switch simulator (wiring its data-plane ports)
// derive the same mapping from the shared topology, mirroring how the
// demo's Mininet script and Ryu app share the topology file.
//
// Per switch (found by binary search) the map holds its sorted neighbors
// and its hosts: the rule above makes a port number an index into them.
type PortMap struct {
	switches []NodeID      // ascending
	ports    []switchPorts // ports[i] are switches[i]'s
}

// switchPorts is one switch's attachments in port order.
type switchPorts struct {
	neighbors []NodeID // ascending: port p faces neighbors[p-1]
	hosts     []string // insertion order: port len(neighbors)+1+k faces hosts[k]
}

// NewPortMap derives the canonical port assignment for a graph.
func NewPortMap(g *Graph) *PortMap {
	pm := &PortMap{switches: make([]NodeID, 0, len(g.nodes))}
	links := 0
	for s := range g.nodes {
		pm.switches = append(pm.switches, s)
		links += len(g.adj[s])
	}
	slices.Sort(pm.switches)
	pm.ports = make([]switchPorts, len(pm.switches))
	neighbors := make([]NodeID, 0, links) // every switch's, one array
	for i, s := range pm.switches {
		from := len(neighbors)
		for n := range g.adj[s] {
			neighbors = append(neighbors, n)
		}
		slices.Sort(neighbors[from:])
		pm.ports[i].neighbors = neighbors[from:len(neighbors):len(neighbors)]
	}
	for _, h := range g.hosts {
		if i, ok := slices.BinarySearch(pm.switches, h.Attach); ok {
			pm.ports[i].hosts = append(pm.ports[i].hosts, h.Name)
		}
	}
	return pm
}

// at returns switch s's ports, none when s is not in the map.
func (pm *PortMap) at(s NodeID) switchPorts {
	if i, ok := slices.BinarySearch(pm.switches, s); ok {
		return pm.ports[i]
	}
	return switchPorts{}
}

// NumPorts returns how many ports switch s has: 1..NumPorts(s) are in use.
func (pm *PortMap) NumPorts(s NodeID) int {
	sp := pm.at(s)
	return len(sp.neighbors) + len(sp.hosts)
}

// Port returns the port on switch s facing neighbor n (0 when absent).
func (pm *PortMap) Port(s, n NodeID) uint16 {
	i, ok := slices.BinarySearch(pm.at(s).neighbors, n)
	if !ok {
		return 0
	}
	return uint16(i + 1)
}

// Neighbor returns the switch reached from s via port p.
func (pm *PortMap) Neighbor(s NodeID, p uint16) (NodeID, bool) {
	nbrs := pm.at(s).neighbors
	if p == 0 || int(p) > len(nbrs) {
		return 0, false
	}
	return nbrs[p-1], true
}

// HostPort returns the port on switch s facing attached host h (of
// two hosts of one name, the later one's).
func (pm *PortMap) HostPort(s NodeID, h string) (uint16, bool) {
	sp := pm.at(s)
	for k := len(sp.hosts) - 1; k >= 0; k-- {
		if sp.hosts[k] == h {
			return uint16(len(sp.neighbors) + 1 + k), true
		}
	}
	return 0, false
}

// Host returns the host reached from s via port p.
func (pm *PortMap) Host(s NodeID, p uint16) (string, bool) {
	sp := pm.at(s)
	if k := int(p) - len(sp.neighbors) - 1; k >= 0 && k < len(sp.hosts) {
		return sp.hosts[k], true
	}
	return "", false
}
