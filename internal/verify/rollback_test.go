package verify

import (
	"testing"

	"tsu/internal/core"
	"tsu/internal/topo"
)

// TestRollbackOfVerifiedPlanIsSafe pins the paper-level safety
// argument operationally: reversing any down-closed installed prefix
// of a verified plan yields a rollback plan that verifies against the
// same properties — every transient state on the way back down is one
// the forward plan could reach on its way up.
func TestRollbackOfVerifiedPlanIsSafe(t *testing.T) {
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	sched, err := core.WayUp(in)
	if err != nil {
		t.Fatal(err)
	}
	p := sched
	if rep := Plan(in, p, sched.Guarantees, Options{}); !rep.OK() {
		t.Fatalf("forward plan does not verify: %v", rep)
	}
	for prefix := 0; prefix <= len(p.Nodes); prefix++ {
		installed := make([]bool, len(p.Nodes))
		for i := 0; i < prefix; i++ {
			installed[i] = true
		}
		rev, _, err := p.Reverse(installed)
		if err != nil {
			t.Fatal(err)
		}
		rep := Plan(in, rev, sched.Guarantees, Options{})
		if !rep.OK() {
			t.Fatalf("rollback of prefix %d does not verify: %v", prefix, rep)
		}
		if !rep.Exact() {
			t.Fatalf("rollback of prefix %d verified inexactly", prefix)
		}
	}
}

// TestRollbackOfOneShotPrefixCanFail pins the genuine stuck path: a
// one-shot plan promises nothing, so an installed prefix may admit
// transient states that violate the instance's natural properties —
// the verifier must refuse such a rollback rather than bless it.
func TestRollbackOfOneShotPrefixCanFail(t *testing.T) {
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	p := core.OneShot(in)
	props := core.NoBlackhole | core.RelaxedLoopFreedom | core.WaypointEnforcement

	// The forward one-shot plan already violates the natural
	// properties; its full rollback walks the same state space and
	// must be refused too.
	if rep := Plan(in, p, props, Options{}); rep.OK() {
		t.Skip("one-shot plan unexpectedly safe on this instance")
	}
	failed := false
	for prefix := 1; prefix <= len(p.Nodes); prefix++ {
		installed := make([]bool, len(p.Nodes))
		for i := 0; i < prefix; i++ {
			installed[i] = true
		}
		rev, _, err := p.Reverse(installed)
		if err != nil {
			t.Fatal(err)
		}
		if rep := Plan(in, rev, props, Options{}); !rep.OK() {
			failed = true
			if cex := rep.FirstViolation(); cex == nil && rep.FinalStateOK {
				t.Fatalf("rollback of prefix %d rejected without a counterexample or final-state failure", prefix)
			}
		}
	}
	if !failed {
		t.Fatal("every one-shot prefix rollback verified safe; expected at least one refusal")
	}
}

// TestRollbackFinalStateRestoresOld ensures the rollback verifier
// checks the right terminal state: all nodes undone must walk the old
// path, not the new one.
func TestRollbackFinalStateRestoresOld(t *testing.T) {
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	sched, err := core.Peacock(in)
	if err != nil {
		t.Fatal(err)
	}
	p := sched
	installed := make([]bool, len(p.Nodes))
	for i := range installed {
		installed[i] = true
	}
	rev, _, err := p.Reverse(installed)
	if err != nil {
		t.Fatal(err)
	}
	rep := Plan(in, rev, sched.Guarantees, Options{})
	if !rep.FinalStateOK {
		t.Fatal("rollback final state does not restore the old configuration")
	}
}
