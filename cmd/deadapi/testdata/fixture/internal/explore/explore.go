// Package explore decides again: a pool, an RNG, a memo, an ideal DFS
// and an oracle of its own.
package explore

import (
	"math/rand/v2"

	"fixture/internal/core"
	"fixture/internal/verify"
)

// Explore runs the plan.
func Explore(p *core.Plan) int {
	seen := map[int]bool{}
	done := make(chan bool)
	go func() { done <- p.VisitIdeals(func() bool { return true }) }()
	<-done
	return len(seen) + rand.IntN(2) + verify.PlanCounterexample(p, verify.Options{})
}

// Options configures an exploration; bench/ alone may set its Seed.
type Options struct{ Seed int64 }

// PlanCounterexample is a second oracle.
func PlanCounterexample(p *core.Plan) int { return 0 }
