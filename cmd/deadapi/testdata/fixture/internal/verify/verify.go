// Package verify holds the one decider, and a sampler of its own.
package verify

import (
	"math/rand"

	"fixture/internal/core"
)

// Options configures a check; bench/ alone may set its Seed.
type Options struct{ Seed int64 }

// PlanCounterexample is the one oracle, seeded again.
func PlanCounterexample(p *core.Plan, opts Options) int {
	return rand.New(rand.NewSource(opts.Seed)).Intn(len(p.Nodes) + 1)
}
