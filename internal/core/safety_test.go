package core

import (
	"math/rand"
	"slices"
	"testing"

	"tsu/internal/topo"
)

// bruteForceRound checks all 2^|round| subsets of a round against
// CheckState — the independent oracle the fast checkers are validated
// against.
func bruteForceRound(in *Instance, done State, round []topo.NodeID, props Property) Property {
	var violated Property
	for mask := 0; mask < 1<<len(round); mask++ {
		st := in.CloneState(done)
		for i, v := range round {
			if mask&(1<<i) != 0 {
				in.Mark(st, v)
			}
		}
		violated |= in.CheckState(st, props)
	}
	return violated
}

func TestRoundSafeStrongLFMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		inst := topo.RandomTwoPath(rng, 4+rng.Intn(8), false)
		in := MustInstance(inst.Old, inst.New, 0)
		pending := in.Pending()
		if len(pending) == 0 {
			continue
		}
		// Random done set and round over the remainder.
		done := in.NewState()
		var rest []topo.NodeID
		for _, v := range pending {
			if rng.Intn(3) == 0 {
				in.Mark(done, v)
			} else {
				rest = append(rest, v)
			}
		}
		var round []topo.NodeID
		for _, v := range rest {
			if rng.Intn(2) == 0 {
				round = append(round, v)
			}
		}
		if len(round) == 0 {
			continue
		}
		fast := in.RoundSafeStrongLF(done, round)
		brute := bruteForceRound(in, done, round, StrongLoopFreedom) == 0
		if fast != brute {
			t.Fatalf("instance %v done %v round %v: double-edge says safe=%v, brute force says %v",
				in, in.StateNodes(done), round, fast, brute)
		}
		if !fast {
			assertStrongLFWitness(t, in, done, round)
		}
	}
}

// assertStrongLFWitness pins CheckRound's strong-loop-freedom witness on
// an unsafe round: done plus a subset of round, whose rule graph has a
// cycle.
func assertStrongLFWitness(t *testing.T, in *Instance, done State, round []topo.NodeID) {
	t.Helper()
	cex, exact := in.CheckRound(done, round, StrongLoopFreedom, 0)
	if !exact || cex == nil || cex.Violated != StrongLoopFreedom {
		t.Fatalf("instance %v done %v round %v: CheckRound = %v (exact %v), want a strong-LF witness",
			in, in.StateNodes(done), round, cex, exact)
	}
	for _, v := range in.StateNodes(cex.Updated) {
		if !in.Updated(done, v) && !slices.Contains(round, v) {
			t.Fatalf("witness updates switch %d outside done ∪ round %v", v, round)
		}
	}
	for _, v := range in.StateNodes(done) {
		if !in.Updated(cex.Updated, v) {
			t.Fatalf("witness %v drops done switch %d", in.StateNodes(cex.Updated), v)
		}
	}
	if got := in.CheckState(cex.Updated, StrongLoopFreedom); got != StrongLoopFreedom {
		t.Fatalf("instance %v done %v round %v: witness %v has no rule cycle",
			in, in.StateNodes(done), round, in.StateNodes(cex.Updated))
	}
}

// TestStrongLFWitnessOnLargeRound pins a witness that neither growing
// the round one switch at a time nor a 2^16 subset scan finds: an
// 18-switch round whose rule cycle needs several of its switches on
// their new rule and the others on their old one. The cycle search
// reads the witness off the double-edge cycle it finds.
func TestStrongLFWitnessOnLargeRound(t *testing.T) {
	var old topo.Path
	for v := topo.NodeID(1); v <= 29; v++ {
		old = append(old, v)
	}
	in := MustInstance(old, topo.Path{1, 15, 4, 16, 6, 8, 18, 22, 25, 12, 21, 14, 17, 19, 11, 3, 9, 13, 23, 10, 20, 24, 7, 28, 2, 29}, 0)
	done := in.StateOf(2, 3, 6, 7, 14, 24, 28)
	round := []topo.NodeID{18, 25, 21, 15, 13, 19, 20, 17, 10, 22, 8, 9, 23, 11, 1, 16, 12, 4}
	if in.RoundSafeStrongLF(done, round) {
		t.Fatal("round must be strong-LF unsafe")
	}
	assertStrongLFWitness(t, in, done, round)
}

func TestCheckRoundMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	props := NoBlackhole | RelaxedLoopFreedom | WaypointEnforcement
	for trial := 0; trial < 300; trial++ {
		inst := topo.RandomTwoPath(rng, 4+rng.Intn(8), true)
		in := MustInstance(inst.Old, inst.New, inst.Waypoint)
		pending := in.Pending()
		if len(pending) == 0 {
			continue
		}
		done := in.NewState()
		var rest []topo.NodeID
		for _, v := range pending {
			if rng.Intn(3) == 0 {
				in.Mark(done, v)
			} else {
				rest = append(rest, v)
			}
		}
		var round []topo.NodeID
		for _, v := range rest {
			if rng.Intn(2) == 0 {
				round = append(round, v)
			}
		}
		if len(round) == 0 {
			continue
		}
		cex, exact := in.CheckRound(done, round, props, 0)
		if !exact {
			t.Fatalf("budget exhausted on tiny instance %v", in)
		}
		brute := bruteForceRound(in, done, round, props)
		if (cex == nil) != (brute == 0) {
			t.Fatalf("instance %v done %v round %v: checker cex=%v, brute violations=%v",
				in, in.StateNodes(done), round, cex, brute)
		}
		if cex != nil {
			// The counterexample must be a real reachable state
			// exhibiting the claimed violation.
			if got := in.CheckState(cex.Updated, props); !got.Has(cex.Violated) {
				t.Fatalf("counterexample state %v does not violate %v (violates %v)",
					in.StateNodes(cex.Updated), cex.Violated, got)
			}
			// And its updated set must be done ∪ subset(round).
			inRound := map[topo.NodeID]bool{}
			for _, v := range round {
				inRound[v] = true
			}
			for _, v := range in.StateNodes(cex.Updated) {
				if !in.Updated(done, v) && !inRound[v] {
					t.Fatalf("counterexample updates switch %d outside done∪round", v)
				}
			}
		}
	}
}

func TestCheckRoundDetectsDrop(t *testing.T) {
	// Round = {1} while new-only 5 still pending: subset {1} drops at 5.
	in := MustInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 5, 3, 4}, 0)
	cex, exact := in.CheckRound(nil, []topo.NodeID{1}, NoBlackhole, 0)
	if !exact || cex == nil || cex.Violated != NoBlackhole {
		t.Fatalf("cex = %v exact=%v, want blackhole", cex, exact)
	}
	if cex.Walk[len(cex.Walk)-1] != 5 {
		t.Fatalf("drop walk = %v, want it to end at 5", cex.Walk)
	}
}

func TestCheckRoundDetectsBypass(t *testing.T) {
	in := MustInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 3, 2, 4}, 2)
	cex, exact := in.CheckRound(nil, in.Pending(), WaypointEnforcement, 0)
	if !exact || cex == nil || cex.Violated != WaypointEnforcement {
		t.Fatalf("cex = %v, want bypass", cex)
	}
	if cex.Walk[len(cex.Walk)-1] != in.Old.Dst() {
		t.Fatalf("bypass walk = %v, must end at destination", cex.Walk)
	}
}

func TestCheckRoundDetectsLoop(t *testing.T) {
	in := MustInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 3, 2, 4}, 0)
	cex, exact := in.CheckRound(nil, in.Pending(), RelaxedLoopFreedom, 0)
	if !exact || cex == nil || cex.Violated != RelaxedLoopFreedom {
		t.Fatalf("cex = %v, want loop", cex)
	}
	repeated := cex.Walk[len(cex.Walk)-1]
	if cex.Walk.Index(repeated) == len(cex.Walk)-1 {
		t.Fatalf("loop walk %v should end at a repeated switch", cex.Walk)
	}
}

func TestCheckRoundSafeSingleton(t *testing.T) {
	// Updating the last pending switch of the new path alone is always
	// safe.
	in := MustInstance(topo.Path{1, 2, 3, 4, 5, 6}, topo.Path{1, 5, 4, 3, 2, 6}, 0)
	cex, exact := in.CheckRound(nil, []topo.NodeID{2}, NoBlackhole|RelaxedLoopFreedom, 0)
	if !exact || cex != nil {
		t.Fatalf("singleton {2} flagged: %v", cex)
	}
}

func TestCheckRoundEmptyRound(t *testing.T) {
	in := MustInstance(topo.Path{1, 2, 3}, topo.Path{1, 3}, 0)
	cex, exact := in.CheckRound(nil, nil, NoBlackhole|RelaxedLoopFreedom|WaypointEnforcement, 0)
	if !exact || cex != nil {
		t.Fatalf("empty round flagged: %v", cex)
	}
}

func TestCheckRoundBudgetExhaustion(t *testing.T) {
	inst := topo.Reversal(24)
	in := MustInstance(inst.Old, inst.New, 0)
	_, exact := in.CheckRound(nil, in.Pending(), RelaxedLoopFreedom|NoBlackhole, 8)
	if exact {
		t.Fatal("budget of 8 steps cannot be enough for 22 pending switches")
	}
}

func TestStrongLFCounterExampleIsReal(t *testing.T) {
	in := MustInstance(topo.Path{1, 2, 3, 4, 5, 6, 7, 8}, topo.Path{1, 7, 5, 2, 8}, 0)
	round := in.Pending()
	if in.RoundSafeStrongLF(nil, round) {
		t.Fatal("one-shot round over a backward instance must be strong-LF unsafe")
	}
	cex, exact := in.CheckRound(nil, round, StrongLoopFreedom, 0)
	if !exact || cex == nil {
		t.Fatal("expected strong-LF counterexample")
	}
	if got := in.CheckState(cex.Updated, StrongLoopFreedom); !got.Has(StrongLoopFreedom) {
		t.Fatalf("counterexample state %v has no rule cycle", in.StateNodes(cex.Updated))
	}
}

// TestDecideKeepsToIdeals pins the choices Decide branches on in a
// stage with edges. On the 3-switch reversal, the rule cycle 2 ⇄ 3
// needs 3 updated while 2 is not: a one-shot round reaches it, and a
// plan that updates 3 only after 2 — or, reversed, undoes 2 only after
// 3 — never does.
func TestDecideKeepsToIdeals(t *testing.T) {
	in := MustInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 3, 2, 4}, 0)
	if cex, exact := in.CheckRound(nil, in.Pending(), StrongLoopFreedom, 0); cex == nil || !exact {
		t.Fatalf("one-shot round: %v (exact %t), want the cycle", cex, exact)
	}
	p := &Plan{Nodes: []PlanNode{{Switch: 1}, {Switch: 2}, {Switch: 3, Deps: []int{1}}}}
	rev, _, err := p.Reverse([]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	rc := NewRoundChecker()
	for _, st := range []*Plan{p, rev} {
		var pre State
		if st.Rollback {
			pre = st.BaseState(in)
		}
		for _, props := range []Property{StrongLoopFreedom, RelaxedLoopFreedom | NoBlackhole} {
			if cex, exact := rc.Decide(in, pre, st, props, 0); cex != nil || !exact {
				t.Fatalf("rollback %t, %v: %v (exact %t), want clean and exact", st.Rollback, props, cex, exact)
			}
		}
	}
}

// TestDecideFindsCycleOffTheStage: with 4 updated and 3 not, the rule
// graph cycles 3 ⇄ 4 before the stage {6, 8} moves, and no walk from
// 6 or 8 enters that cycle. Decide still reports it, in the stage's
// first state.
func TestDecideFindsCycleOffTheStage(t *testing.T) {
	in := MustInstance(topo.Path{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, topo.Path{1, 5, 4, 3, 6, 8, 10}, 0)
	p := &Plan{Nodes: []PlanNode{{Switch: 6}, {Switch: 8, Deps: []int{0}}}}
	pre := in.StateOf(4)
	cex, exact := NewRoundChecker().Decide(in, pre, p, StrongLoopFreedom, 0)
	if !exact || cex == nil || !slices.Equal(cex.Updated, pre) {
		t.Fatalf("Decide = %v (exact %t), want the cycle 3 ⇄ 4 in the state {4}", cex, exact)
	}
}

// checkerTestInstances is a deterministic mix of instance shapes: the
// Fig.1 scenario, path reversals (transient loops), and random
// two-path instances with and without waypoints.
func checkerTestInstances(t *testing.T) []*Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	ins := []*Instance{
		MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint),
		MustInstance(topo.Reversal(8).Old, topo.Reversal(8).New, 0),
		MustInstance(topo.Reversal(70).Old, topo.Reversal(70).New, 0), // multi-word states
	}
	for i := 0; i < 12; i++ {
		ti := topo.RandomTwoPath(rng, 6+rng.Intn(20), i%2 == 0)
		ins = append(ins, MustInstance(ti.Old, ti.New, ti.Waypoint))
	}
	return ins
}

// TestRoundCheckerReuse runs the same verification twice through one
// RoundChecker, interleaved across instances, and requires identical
// verdicts to fresh CheckRound calls — the scratch reuse must not leak
// state between rounds or instances.
func TestRoundCheckerReuse(t *testing.T) {
	props := NoBlackhole | RelaxedLoopFreedom | WaypointEnforcement
	rc := NewRoundChecker()
	for _, in := range checkerTestInstances(t) {
		for _, algo := range []string{AlgoOneShot, AlgoPeacock} {
			s, err := PlanByName(in, algo, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			done := in.NewState()
			for _, round := range s.Layers() {
				wantCex, wantExact := in.CheckRound(done, round, props, 0)
				gotCex, gotExact := rc.Check(in, done, round, props, 0)
				if gotExact != wantExact {
					t.Fatalf("%v %s: reused checker exact=%t, fresh says %t", in, algo, gotExact, wantExact)
				}
				if (gotCex == nil) != (wantCex == nil) {
					t.Fatalf("%v %s: reused checker cex=%v, fresh says %v", in, algo, gotCex, wantCex)
				}
				if gotCex != nil {
					if gotCex.Violated != wantCex.Violated || !gotCex.Walk.Equal(wantCex.Walk) {
						t.Fatalf("%v %s: reused checker %v, fresh %v", in, algo, gotCex, wantCex)
					}
				}
				in.Mark(done, round...)
			}
		}
	}
}
