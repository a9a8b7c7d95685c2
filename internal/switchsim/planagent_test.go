package switchsim

import (
	"math/rand"
	"slices"
	"testing"

	"tsu/internal/core"
	"tsu/internal/topo"
)

// TestAgentsDeriveEveryEdgeOnce: every switch of a plan gets the whole
// plan and derives its own share. Together the shares are the plan,
// for every registered scheduler, layered and sparse, on Fig. 1 and a
// seeded fat-tree reroute: each node is owned by exactly one agent, and
// each edge d→i is derived exactly once as an in-edge at i's switch and
// exactly once as an out-edge at d's switch.
func TestAgentsDeriveEveryEdgeOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ft := topo.FatTree(4)
	var fatTree *core.Instance
	for fatTree == nil || fatTree.NumPending() == 0 {
		ti, err := topo.RandomFatTreePolicy(rng, ft)
		if err != nil {
			t.Fatal(err)
		}
		fatTree = core.MustInstance(ti.Old, ti.New, 0)
	}
	instances := map[string]*core.Instance{
		"fig1":    core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint),
		"fattree": fatTree,
	}
	for caseName, in := range instances {
		for _, name := range core.Names() {
			for _, sparse := range []bool{false, true} {
				p, err := core.PlanByName(in, name, 0, sparse)
				if err != nil {
					continue // the scheduler declines this instance
				}
				label := caseName + "/" + p.String()
				owners := make([]int, len(p.Nodes))
				ins, outs := map[[2]int]int{}, map[[2]int]int{}
				var switches []topo.NodeID
				for _, nd := range p.Nodes {
					switches = append(switches, nd.Switch)
				}
				slices.Sort(switches)
				for _, sw := range slices.Compact(switches) {
					nodes := ownNodes(p, sw)
					for k, nd := range nodes {
						if k > 0 && nodes[k-1].index >= nd.index {
							t.Fatalf("%s: switch %d's nodes not ascending", label, sw)
						}
						if p.Nodes[nd.index].Switch != sw {
							t.Fatalf("%s: switch %d owns node %d of switch %d", label, sw, nd.index, p.Nodes[nd.index].Switch)
						}
						owners[nd.index]++
						deps := p.Nodes[nd.index].Deps
						if nd.pending != len(deps) {
							t.Fatalf("%s: node %d waits for %d acks, has %d in-edges", label, nd.index, nd.pending, len(deps))
						}
						for _, d := range deps {
							ins[[2]int{d, nd.index}]++
						}
						if !slices.IsSorted(nd.out) {
							t.Fatalf("%s: node %d's out-edges %v not ascending", label, nd.index, nd.out)
						}
						for _, succ := range nd.out {
							outs[[2]int{nd.index, succ}]++
						}
					}
				}
				for i, n := range owners {
					if n != 1 {
						t.Fatalf("%s: node %d owned by %d agents", label, i, n)
					}
				}
				if len(ins) != p.NumEdges() || len(outs) != p.NumEdges() {
					t.Fatalf("%s: %d in-edges and %d out-edges derived for %d plan edges", label, len(ins), len(outs), p.NumEdges())
				}
				for i, nd := range p.Nodes {
					for _, d := range nd.Deps {
						if e := [2]int{d, i}; ins[e] != 1 || outs[e] != 1 {
							t.Fatalf("%s: edge %d→%d derived %d times as an in-edge, %d as an out-edge", label, d, i, ins[e], outs[e])
						}
					}
				}
			}
		}
	}
}
