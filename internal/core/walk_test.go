package core

import (
	"testing"

	"tsu/internal/topo"
)

func TestWalkInitialFollowsOldPath(t *testing.T) {
	in := MustInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 5, 3, 4}, 0)
	path, outcome := in.Walk(nil)
	if outcome != Reached {
		t.Fatalf("outcome = %v", outcome)
	}
	if !path.Equal(topo.Path{1, 2, 3, 4}) {
		t.Fatalf("walk = %v", path)
	}
}

func TestWalkFinalFollowsNewPath(t *testing.T) {
	in := MustInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 5, 3, 4}, 0)
	st := in.StateOf(in.Pending()...)
	path, outcome := in.Walk(st)
	if outcome != Reached {
		t.Fatalf("outcome = %v", outcome)
	}
	if !path.Equal(topo.Path{1, 5, 3, 4}) {
		t.Fatalf("walk = %v", path)
	}
}

func TestWalkDropAtRulelessNewOnlySwitch(t *testing.T) {
	// Update 1 but not the new-only switch 5: packets reach 5 and drop.
	in := MustInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 5, 3, 4}, 0)
	path, outcome := in.Walk(in.StateOf(1))
	if outcome != Dropped {
		t.Fatalf("outcome = %v, want dropped", outcome)
	}
	if !path.Equal(topo.Path{1, 5}) {
		t.Fatalf("walk = %v", path)
	}
}

func TestWalkLoop(t *testing.T) {
	// Old 1→2→3→4, new 1→3→2→4. Updating only 3 (rule 3→2) loops:
	// 1→2→3→2.
	in := MustInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 3, 2, 4}, 0)
	path, outcome := in.Walk(in.StateOf(3))
	if outcome != Looped {
		t.Fatalf("outcome = %v, want looped", outcome)
	}
	last := path[len(path)-1]
	if path.Index(last) == len(path)-1 {
		t.Fatalf("looped walk %v should end at a repeated switch", path)
	}
}

func TestWalkFuncMatchesWalk(t *testing.T) {
	in := MustInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 3, 2, 4}, 0)
	st := in.StateOf(1, 3)
	w1, o1 := in.Walk(st)
	w2, o2 := newMapInstance(in.Old, in.New).walk(map[topo.NodeID]bool{1: true, 3: true})
	if o1 != o2 || !w1.Equal(w2) {
		t.Fatalf("Walk = %v (%v), map walk = %v (%v)", w1, o1, w2, o2)
	}
}

func TestNextHopResolution(t *testing.T) {
	in := MustInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 5, 3, 4}, 0)
	upd := in.StateOf
	// Pending switch before update: old rule.
	if n, ok := nextHop(in, 1, upd()); !ok || n != 2 {
		t.Fatalf("NextHop(1, pre) = %d,%v", n, ok)
	}
	// Pending switch after update: new rule.
	if n, ok := nextHop(in, 1, upd(1)); !ok || n != 5 {
		t.Fatalf("NextHop(1, post) = %d,%v", n, ok)
	}
	// New-only switch before update: no rule.
	if _, ok := nextHop(in, 5, upd()); ok {
		t.Fatal("NextHop(5, pre) should drop")
	}
	if n, ok := nextHop(in, 5, upd(5)); !ok || n != 3 {
		t.Fatalf("NextHop(5, post) = %d,%v", n, ok)
	}
	// Non-pending shared switch: single rule regardless.
	if n, ok := nextHop(in, 3, upd()); !ok || n != 4 {
		t.Fatalf("NextHop(3) = %d,%v", n, ok)
	}
	// Old-only switch: old rule always.
	if n, ok := nextHop(in, 2, upd(1, 5)); !ok || n != 3 {
		t.Fatalf("NextHop(2) = %d,%v", n, ok)
	}
	// Destination: terminal.
	if _, ok := nextHop(in, 4, upd()); ok {
		t.Fatal("NextHop(dst) should be terminal")
	}
}

func TestCheckStateWaypointBypass(t *testing.T) {
	// Old 1→2(w)→3→4, new 1→3→2(w)→4. Updating only 1: walk 1→3→2→4?
	// No — 3 keeps its old rule 3→4, so the walk is 1→3→4, bypassing
	// waypoint 2.
	in := MustInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 3, 2, 4}, 2)
	violated := in.CheckState(in.StateOf(1), NoBlackhole|WaypointEnforcement|RelaxedLoopFreedom)
	if !violated.Has(WaypointEnforcement) {
		t.Fatalf("violated = %v, want waypoint bypass", violated)
	}
	if violated.Has(NoBlackhole) || violated.Has(RelaxedLoopFreedom) {
		t.Fatalf("violated = %v, unexpected extra violations", violated)
	}
}

func TestCheckStateWaypointOKOnLoop(t *testing.T) {
	// A looping state never delivers packets, so waypoint enforcement
	// is not violated even though the loop is.
	in := MustInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 3, 2, 4}, 2)
	violated := in.CheckState(in.StateOf(3), WaypointEnforcement|RelaxedLoopFreedom)
	if violated.Has(WaypointEnforcement) {
		t.Fatal("waypoint flagged on a looping walk")
	}
	if !violated.Has(RelaxedLoopFreedom) {
		t.Fatal("loop not flagged")
	}
}

func TestCheckStateReachableLoopViolatesBoth(t *testing.T) {
	// Old 1→2→3→4, new 1→3→2→4: state {1,3}: walk 1→3→2→3 — a loop
	// reachable from the source violates relaxed and strong loop
	// freedom alike.
	in := MustInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 3, 2, 4}, 0)
	vio := in.CheckState(in.StateOf(1, 3), StrongLoopFreedom|RelaxedLoopFreedom)
	if !vio.Has(StrongLoopFreedom) || !vio.Has(RelaxedLoopFreedom) {
		t.Fatalf("violated = %v, want both loop properties", vio)
	}
}

func TestCheckStateStaleCycleViolatesOnlyStrong(t *testing.T) {
	// Old 1→..→8, new ⟨1,7,5,2,8⟩, state {1,5}: the walk is 1→7→8
	// (reached via 7's still-old rule, loop-free), but the stale
	// region holds the cycle 5→2→3→4→5 (5's new rule plus old rules).
	// This is exactly the state relaxed loop freedom permits and
	// strong loop freedom forbids.
	in := MustInstance(topo.Path{1, 2, 3, 4, 5, 6, 7, 8}, topo.Path{1, 7, 5, 2, 8}, 0)
	st := in.StateOf(1, 5)
	walk, outcome := in.Walk(st)
	if outcome != Reached || !walk.Equal(topo.Path{1, 7, 8}) {
		t.Fatalf("walk = %v (%v), want 1->7->8 reached", walk, outcome)
	}
	vio := in.CheckState(st, StrongLoopFreedom|RelaxedLoopFreedom|NoBlackhole)
	if !vio.Has(StrongLoopFreedom) {
		t.Fatalf("violated = %v, want strong-LF (stale cycle 5→2→3→4→5)", vio)
	}
	if vio.Has(RelaxedLoopFreedom) || vio.Has(NoBlackhole) {
		t.Fatalf("violated = %v, relaxed/blackhole must pass", vio)
	}
}

// TestCheckStateLoopConsistency cross-checks the two loop notions over
// every state of a fixed instance: a looping walk implies a strong
// violation too, and a relaxed violation requires a looping walk.
func TestCheckStateLoopConsistency(t *testing.T) {
	in := MustInstance(topo.Path{1, 2, 3, 4, 5, 6}, topo.Path{1, 4, 3, 6}, 0)
	pend := in.Pending()
	for mask := 0; mask < 1<<len(pend); mask++ {
		st := in.NewState()
		for i, v := range pend {
			if mask&(1<<i) != 0 {
				in.Mark(st, v)
			}
		}
		vio := in.CheckState(st, StrongLoopFreedom|RelaxedLoopFreedom)
		_, outcome := in.Walk(st)
		if outcome == Looped && !vio.Has(StrongLoopFreedom) {
			t.Fatalf("state %v: reachable loop must be a strong-LF violation", in.StateNodes(st))
		}
		if vio.Has(RelaxedLoopFreedom) && outcome != Looped {
			t.Fatalf("state %v: relaxed violation without a looping walk", in.StateNodes(st))
		}
	}
}

func TestStateHelpers(t *testing.T) {
	in := MustInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 5, 3, 4}, 0)
	s := in.StateOf(1, 5)
	if !in.Updated(s, 1) || !in.Updated(s, 5) || in.Updated(s, 3) {
		t.Fatal("StateOf/Updated wrong")
	}
	if s.Count() != 2 {
		t.Fatalf("Count = %d", s.Count())
	}
	if got := in.StateNodes(s); len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Fatalf("StateNodes = %v", got)
	}
	c := in.CloneState(s)
	in.Mark(c, 3)
	if in.Updated(s, 3) {
		t.Fatal("Clone aliases")
	}
	c.Clear(in.NodeIndex(3))
	if in.Updated(c, 3) {
		t.Fatal("Clear failed")
	}
	// Switches off both paths are ignored by Mark and read as absent.
	in.Mark(c, 99)
	if in.Updated(c, 99) {
		t.Fatal("unknown switch marked")
	}
	// A nil State is the empty set.
	if State(nil).Has(7) || State(nil).Count() != 0 {
		t.Fatal("nil State semantics wrong")
	}
}

func TestNodeIndexRoundTrip(t *testing.T) {
	in := MustInstance(topo.Path{1, 9, 3, 4}, topo.Path{1, 5, 3, 4}, 0)
	if in.NumNodes() != 5 { // union {1, 3, 4, 5, 9}
		t.Fatalf("NumNodes = %d", in.NumNodes())
	}
	for i := 0; i < in.NumNodes(); i++ {
		if in.NodeIndex(in.nodeOf[i]) != i {
			t.Fatalf("NodeIndex(NodeAt(%d)) = %d", i, in.NodeIndex(in.nodeOf[i]))
		}
	}
	if in.NodeIndex(77) != -1 {
		t.Fatal("NodeIndex of unknown switch should be -1")
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{Reached: "reached", Dropped: "dropped", Looped: "looped", Outcome(9): "unknown"} {
		if o.String() != want {
			t.Fatalf("Outcome(%d).String() = %q, want %q", o, o.String(), want)
		}
	}
}

// nextHop resolves v's rule under updated through the dense table Walk
// follows.
func nextHop(in *Instance, v topo.NodeID, updated State) (topo.NodeID, bool) {
	i := in.idx(v)
	if i < 0 {
		return 0, false
	}
	n, ok := in.nextHopIdx(i, updated)
	if !ok {
		return 0, false
	}
	return in.node(n)
}
