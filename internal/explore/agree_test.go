package explore

import (
	"testing"

	"tsu/internal/core"
	"tsu/internal/verify"
)

// TestVerifyAndExploreAgree pins that the verifier and the explorer
// decide the same set: on every planTestInstances case, for every
// scheduler's layered and sparse plan and for the rollback of its
// applied first half, verify.Plan and explore.Plan give the same OK()
// wherever both report an exact verdict.
func TestVerifyAndExploreAgree(t *testing.T) {
	compared := 0
	for caseName, in := range planTestInstances(t) {
		props := in.NaturalProps()
		for _, name := range core.Names() {
			for _, sparse := range []bool{false, true} {
				p, err := core.PlanByName(in, name, 0, sparse)
				if err != nil {
					continue
				}
				plans := map[string]*core.Plan{"forward": p}
				installed := make([]bool, len(p.Nodes))
				for i := 0; i < len(p.Nodes)/2; i++ {
					installed[i] = true
				}
				if rev, _, err := p.Reverse(installed); err != nil {
					t.Fatalf("%s/%s: %v", caseName, name, err)
				} else if len(rev.Nodes) > 0 {
					plans["rollback"] = rev
				}
				for dir, q := range plans {
					vr := verify.Plan(in, q, props, verify.Options{})
					er, err := Plan(in, q, Options{Props: props, MaxExhaustive: 14})
					if err != nil {
						t.Fatalf("%s/%s/%s sparse=%t: %v", caseName, name, dir, sparse, err)
					}
					if !vr.Exact() || !er.Exhaustive() {
						continue
					}
					compared++
					if vr.OK() != er.OK() {
						t.Errorf("%s/%s/%s sparse=%t: verify %s, explore %s", caseName, name, dir, sparse, vr, er)
					}
				}
			}
		}
	}
	if compared == 0 {
		t.Fatal("no plan was decided exactly by both")
	}
	t.Logf("%d plans compared", compared)
}
