// Package core stands in for the tree's plan IR.
package core

import (
	"math/rand"

	"fixture/internal/topo"
)

// Instance is an update.
type Instance struct{ old []topo.NodeID }

// Property is a guarantee.
type Property int

// Plan is a schedule DAG.
type Plan struct{ Nodes []int }

// PlanByName runs a scheduler.
func PlanByName(*Instance, string, Property, bool) (*Plan, error) { return &Plan{}, nil }

// VisitIdeals enumerates the plan's order ideals.
func (p *Plan) VisitIdeals(visit func() bool) bool { return visit() }

// Walker is a second engine: an ideal enumerator with a sampled
// fallback.
type Walker struct{}

func (w *Walker) enumerate(p *Plan) bool { return p.VisitIdeals(func() bool { return true }) }

// IdealStates is the test reference.
func (p *Plan) IdealStates() int {
	n := 0
	p.VisitIdeals(func() bool { n++; return true })
	return n
}

// PlanScheduler converts round schedules again.
type PlanScheduler interface{ Plan() *Schedule }

// CheckStage enumerates a stage's ideals and samples past a budget.
func (w *Walker) CheckStage(p *Plan) bool { return w.enumerate(p) || rand.Intn(2) == 0 }

// sparseSafe spot-checks a sparse plan.
func sparseSafe(p *Plan) bool { return new(Walker).CheckStage(p) }
