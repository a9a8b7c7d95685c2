package explore

import (
	"fmt"
	"sort"

	"tsu/internal/core"
	"tsu/internal/topo"
)

// IdealCounterexample is a violating transient state of a plan,
// reported as the order ideal that reaches it — the currency of the
// CEGIS loop in internal/synth, which needs the violating node set
// (to map it back to a blocking happens-before edge), not just a
// verdict or a delivery trace.
type IdealCounterexample struct {
	// Nodes holds the violating ideal as plan-node indices, ascending.
	Nodes []int

	// Switches is the same set as switch IDs, aligned with Nodes.
	Switches []topo.NodeID

	// Violated is the property subset broken in the ideal's state.
	Violated core.Property

	// Checked counts per-state property checks spent reaching the
	// verdict.
	Checked int

	// Exact marks counterexamples from exhaustive enumeration: the
	// ideal is the minimum violating one by (size, node mask).
	// Sampled counterexamples are 1-minimal (Minimize) but not
	// necessarily minimum.
	Exact bool
}

func (c *IdealCounterexample) String() string {
	return fmt.Sprintf("ideal{%v %s exact=%t}", c.Switches, c.Violated, c.Exact)
}

// PlanCounterexample is the synthesizer's oracle entry point: it
// attacks the plan's DAG as one stage — never splitting it at its
// series cuts, so the violating state always comes back as an ideal
// over plan-node indices — and returns the first violating ideal
// found, or (nil, exhaustive) when the adversary found nothing.
// exhaustive true means every reachable ideal was enumerated clean (a
// proof); false means only sampled linear extensions were clean.
// Deterministic in (plan, Options); Workers is ignored (one stage is
// one work item).
func PlanCounterexample(in *core.Instance, p *core.Plan, opts Options) (cex *IdealCounterexample, exhaustive bool, err error) {
	if err := p.Validate(in); err != nil {
		return nil, false, fmt.Errorf("explore: %w", err)
	}
	opts = opts.withDefaults()
	props := resolveProps(in, p.Guarantees, opts.Props)
	rr := newScratch(in).exploreStage(&stage{plan: p, pre: startState(in, p)}, props, opts)
	if rr.Violation == nil {
		return nil, rr.Exhaustive, nil
	}
	nodeIdx := make(map[topo.NodeID]int, len(p.Nodes))
	for i, nd := range p.Nodes {
		nodeIdx[nd.Switch] = i
	}
	c := &IdealCounterexample{
		Violated: rr.Violation.Violated,
		Checked:  rr.Events,
		Exact:    rr.Exhaustive,
	}
	for _, e := range rr.Violation.Trace {
		c.Nodes = append(c.Nodes, nodeIdx[e.Switch])
	}
	sort.Ints(c.Nodes)
	for _, i := range c.Nodes {
		c.Switches = append(c.Switches, p.Nodes[i].Switch)
	}
	return c, rr.Exhaustive, nil
}
