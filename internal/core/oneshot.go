package core

import "tsu/internal/topo"

// OneShot returns the baseline plan a consistency-oblivious
// controller produces: every FlowMod in a single round, no barriers in
// between. Under an asynchronous control channel the transient states
// are arbitrary rule mixtures, so no property is guaranteed — this is
// the comparator that exhibits transient loops and waypoint bypasses in
// the experiments.
func OneShot(in *Instance) *Plan {
	return Layered(AlgoOneShot, 0, [][]topo.NodeID{in.Pending()})
}
