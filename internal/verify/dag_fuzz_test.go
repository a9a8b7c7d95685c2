package verify

import (
	"math/rand"
	"testing"

	"tsu/internal/core"
	"tsu/internal/topo"
)

// FuzzVerifyDAGStage holds Plan's one search to the reference: on a
// small random instance (at most 10 pending switches), a random DAG
// over its pending switches and a random property set, forward or as
// the reverse of a random installed ideal, Plan must be exact and find
// a violation exactly when exhaustive enumeration of the plan's ideals
// (PlanCounterexample, budget above their count) does. A violation Plan
// reports must hold in its state, and that state must be reachable: the
// nodes it has delivered form an order ideal.
func FuzzVerifyDAGStage(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed, uint8(seed), uint8(40*seed), uint8(seed), seed%3 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, size, density, props uint8, reverse bool) {
		rng := rand.New(rand.NewSource(seed))
		ti := topo.RandomTwoPath(rng, 4+int(size)%8, props&0x80 != 0)
		in := core.MustInstance(ti.Old, ti.New, ti.Waypoint)
		pending := in.Pending()
		rng.Shuffle(len(pending), func(i, j int) { pending[i], pending[j] = pending[j], pending[i] })
		p := &core.Plan{Algorithm: "fuzz", Sparse: true}
		for i, v := range pending {
			var deps []int
			for d := 0; d < i; d++ {
				if rng.Intn(256) < int(density) {
					deps = append(deps, d)
				}
			}
			p.Nodes = append(p.Nodes, core.PlanNode{Switch: v, Deps: deps})
		}
		if reverse {
			installed := make([]bool, len(p.Nodes))
			for i, nd := range p.Nodes {
				installed[i] = rng.Intn(4) != 0
				for _, d := range nd.Deps {
					installed[i] = installed[i] && installed[d]
				}
			}
			rev, _, err := p.Reverse(installed)
			if err != nil {
				t.Fatal(err)
			}
			p = rev
		}
		want := core.Property(props) & (core.NoBlackhole | core.WaypointEnforcement | core.RelaxedLoopFreedom | core.StrongLoopFreedom)

		rep := Plan(in, p, want, Options{})
		ref := PlanCounterexample(in, p, want, Options{Budget: 1 << 12})
		if rep.StructureErr != nil || !rep.Exact() || !ref.Exact {
			t.Fatalf("%v on %v: %v, reference exact %t", p, in, rep, ref.Exact)
		}
		cex := rep.FirstViolation()
		if (cex != nil) != (ref.Violation != nil) {
			t.Fatalf("%v on %v, props %v: verify %v, enumeration %v", p, in, want, cex, ref.Violation)
		}
		if cex == nil {
			return
		}
		if in.CheckState(cex.Updated, want)&cex.Violated == 0 {
			t.Fatalf("%v on %v: state of %v violates none of %v", p, in, cex, cex.Violated)
		}
		for i, nd := range p.Nodes {
			if !delivered(in, p, cex.Updated, i) {
				continue
			}
			for _, d := range nd.Deps {
				if !delivered(in, p, cex.Updated, d) {
					t.Fatalf("%v on %v: %v delivers node %d before its dependency %d", p, in, cex, i, d)
				}
			}
		}
	})
}

// delivered reports whether node i of p has taken effect in st: its
// switch updated, or undone for a rollback plan.
func delivered(in *core.Instance, p *core.Plan, st core.State, i int) bool {
	return in.Updated(st, p.Nodes[i].Switch) != p.Rollback
}
