// Package verify holds the one decider, and a sampler of its own.
package verify

import (
	"math/rand"

	"fixture/internal/core"
)

// PlanCounterexample is the one oracle.
func PlanCounterexample(p *core.Plan) int { return rand.Intn(len(p.Nodes) + 1) }
