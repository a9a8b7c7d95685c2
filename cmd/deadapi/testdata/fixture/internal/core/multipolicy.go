package core

import "fixture/internal/topo"

// Cross-flow tables are keyed across instances, which share no index.
var flows map[topo.NodeID][]int
