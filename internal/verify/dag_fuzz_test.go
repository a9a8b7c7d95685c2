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
// a violation exactly when some ideal the reference enumeration
// (core.Plan.IdealStates, each checked by CheckState) lists violates.
// A violation Plan reports must hold in its state, and that state must
// be reachable: the nodes it has delivered form an order ideal.
// PlanCounterexample's trace of the same plan must be a minimal
// violating ideal.
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
		var pre core.State
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
			p, pre = rev, rev.BaseState(in)
		}
		want := core.Property(props) & (core.NoBlackhole | core.WaypointEnforcement | core.RelaxedLoopFreedom | core.StrongLoopFreedom)

		rep := Plan(in, p, want, Options{})
		if rep.StructureErr != nil || !rep.Exact() {
			t.Fatalf("%v on %v: %v", p, in, rep)
		}
		cex := rep.FirstViolation()
		if ref := idealViolates(in, pre, p, want); (cex != nil) != ref {
			t.Fatalf("%v on %v, props %v: verify %v, an ideal violates: %t", p, in, want, cex, ref)
		}
		if cex == nil {
			return
		}
		assertMinimalTrace(t, in, pre, p, PlanCounterexample(in, p, want, Options{}).Trace, want)
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
