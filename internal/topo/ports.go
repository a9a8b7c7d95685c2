package topo

// PortMap assigns deterministic OpenFlow port numbers to every switch's
// attachments: ports 1..k go to the switch's neighbors in ascending
// node-ID order, followed by one port per attached host in host
// insertion order. Both the controller (computing FlowMod output
// actions) and the switch simulator (wiring its data-plane ports)
// derive the same mapping from the shared topology, mirroring how the
// demo's Mininet script and Ryu app share the topology file.
type PortMap struct {
	// NeighborPort[s][n] is the port on switch s that faces neighbor n.
	NeighborPort map[NodeID]map[NodeID]uint16
	// PortNeighbor[s][p] is the switch reached from s via port p.
	PortNeighbor map[NodeID]map[uint16]NodeID
	// HostPort[s][h] is the port on switch s that faces attached host h.
	HostPort map[NodeID]map[string]uint16
	// PortHost[s][p] is the host reached from s via port p.
	PortHost map[NodeID]map[uint16]string
}

// NewPortMap derives the canonical port assignment for a graph.
func NewPortMap(g *Graph) *PortMap {
	pm := &PortMap{
		NeighborPort: make(map[NodeID]map[NodeID]uint16),
		PortNeighbor: make(map[NodeID]map[uint16]NodeID),
		HostPort:     make(map[NodeID]map[string]uint16),
		PortHost:     make(map[NodeID]map[uint16]string),
	}
	for _, s := range g.Nodes() {
		pm.NeighborPort[s] = make(map[NodeID]uint16)
		pm.PortNeighbor[s] = make(map[uint16]NodeID)
		pm.HostPort[s] = make(map[string]uint16)
		pm.PortHost[s] = make(map[uint16]string)
		port := uint16(1)
		for _, n := range g.Neighbors(s) {
			pm.NeighborPort[s][n] = port
			pm.PortNeighbor[s][port] = n
			port++
		}
	}
	for _, h := range g.Hosts() {
		s := h.Attach
		port := uint16(len(pm.PortNeighbor[s]) + len(pm.PortHost[s]) + 1)
		pm.HostPort[s][h.Name] = port
		pm.PortHost[s][port] = h.Name
	}
	return pm
}

// Port returns the port on switch s facing neighbor n (0 when absent).
func (pm *PortMap) Port(s, n NodeID) uint16 { return pm.NeighborPort[s][n] }
