// Package verify holds the one decider, and a sampler of its own.
package verify

import (
	"math/rand"

	"fixture/internal/core"
)

// PlanCounterexample is the one oracle.
func PlanCounterexample(p *core.Plan) int {
	if new(core.Walker).CheckStage(p) {
		return 0
	}
	return rand.Intn(len(p.Nodes) + 1)
}

// traceStage is the explorer's coverage of a stage.
func traceStage(p *core.Plan) bool { return new(core.Walker).CheckStage(p) }

// decide is a verdict that enumerates and samples again.
func decide(p *core.Plan) bool { return new(core.Walker).CheckStage(p) }
