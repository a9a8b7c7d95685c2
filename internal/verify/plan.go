package verify

import "tsu/internal/core"

// PlanCounterexample is the synthesizer's certificate oracle: it
// decides the plan's ideal space as one stage — never splitting it at
// its series cuts, so a violating state always comes back as an ideal
// over plan-node indices — and returns the violating
// ideal (ascending node indices), the properties broken there, and
// whether the verdict is exact (exhaustive enumeration within
// Options.Budget rather than sampled extensions). nodes == nil means
// no violation was found; nil with exact false is an undecided
// verdict, which is also what a structurally invalid plan reports
// (callers build plans via PlanDraft, which cannot emit one).
func PlanCounterexample(in *core.Instance, p *core.Plan, props core.Property, opts Options) (nodes []int, violated core.Property, exact bool) {
	opts = opts.withDefaults()
	if err := p.Validate(in); err != nil {
		return nil, 0, false
	}
	var base core.State // nil for forward plans: the empty ideal is the old state
	if p.Rollback {
		base = p.BaseState(in)
	}
	cex, exact := checkDAG(in.NewWalker(), base, p, props, opts, 0, 0)
	if cex == nil {
		return nil, 0, exact
	}
	for i, nd := range p.Nodes {
		// Forward plans: a node is in the violating ideal when its
		// switch is updated. Rollback plans invert: the ideal is the
		// uninstalled set (state = base∖ideal).
		if in.Updated(cex.Updated, nd.Switch) != p.Rollback {
			nodes = append(nodes, i)
		}
	}
	return nodes, cex.Violated, exact
}
