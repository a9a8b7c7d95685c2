package core

import "fixture/internal/topo"

type nid = topo.NodeID

var (
	byNode  map[topo.NodeID]int
	byAlias map[nid]int
)
