package controller

import "fixture/internal/openflow"

// execPlan stores a FlowMod per node.
type execPlan struct {
	mods []*openflow.FlowMod
}
