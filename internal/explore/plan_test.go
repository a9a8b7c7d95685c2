package explore

import (
	"math/rand"
	"reflect"
	"testing"

	"tsu/internal/core"
	"tsu/internal/topo"
	"tsu/internal/verify"
)

// planTestInstances returns the pinned equivalence instances: the
// paper's Fig.1 update (with and without waypoint) and a seeded random
// fat-tree reroute.
func planTestInstances(t *testing.T) map[string]*core.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(12))
	ft := topo.FatTree(4)
	var ftInstance *core.Instance
	for ftInstance == nil || ftInstance.NumPending() == 0 {
		ti, err := topo.RandomFatTreePolicy(rng, ft)
		if err != nil {
			t.Fatal(err)
		}
		ftInstance = core.MustInstance(ti.Old, ti.New, 0)
	}
	return map[string]*core.Instance{
		"fig1":      core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint),
		"fig1-nowp": core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, 0),
		"fattree":   ftInstance,
	}
}

// TestLayeredPlanBitIdentical is the layered-plan contract, pinned for
// every registered scheduler on Fig.1 and a fat-tree instance: the
// scheduler's rounds, converted to a layered plan, must yield (a) the
// round states as the reachable-state set, (b) one verifier result per
// round whose verdict is the one the round states give, and (c) one
// explorer report per round that is bit-identical to the reference
// round enumerator's (ascendingExhaustive) — layered plans ARE round
// semantics, with one engine behind them.
func TestLayeredPlanBitIdentical(t *testing.T) {
	for caseName, in := range planTestInstances(t) {
		for _, name := range core.Names() {
			t.Run(caseName+"/"+name, func(t *testing.T) {
				scheduler := core.MustScheduler(name)
				if !scheduler.Applicable(in) {
					t.Skipf("%s not applicable", name)
				}
				p, err := core.PlanByName(in, name, 0, false)
				if err != nil {
					t.Skipf("%s declined: %v", name, err)
				}
				rounds := p.Layers()
				props := in.NaturalProps()

				// (a) Reachable states: the plan's order ideals are its
				// round states.
				wantStates := roundStates(in, rounds)
				gotStates := map[string]bool{}
				clean := true
				for _, st := range p.IdealStates(in) {
					gotStates[stateKey(st)] = true
					clean = clean && in.CheckState(st, props) == 0
				}
				if len(gotStates) != len(wantStates) {
					t.Fatalf("reachable states: %d ideals vs %d round states", len(gotStates), len(wantStates))
				}
				for k := range wantStates {
					if !gotStates[k] {
						t.Fatal("round state missing from plan ideals")
					}
				}

				// (b) Verifier: a result per round, exact at these
				// sizes, and the verdict the round states give.
				vp := verify.Plan(in, p, props, verify.Options{Seed: 7})
				if len(vp.Rounds) != len(rounds) || !vp.Exact() || vp.OK() != clean {
					t.Fatalf("verifier: %s (%d results for %d rounds), round states clean=%t", vp, len(vp.Rounds), len(rounds), clean)
				}
				for i, rr := range vp.Rounds {
					if rr.Round != i || rr.Size != len(rounds[i]) {
						t.Fatalf("verifier result %d = %+v, want round %d of size %d", i, rr, i, len(rounds[i]))
					}
				}

				// (c) Explorer: per round, the reference enumerator's
				// state count and minimum counterexample.
				rp, err := Plan(in, p, Options{Props: props, Seed: 11, MaxExhaustive: 14})
				if err != nil {
					t.Fatal(err)
				}
				if len(rp.Rounds) != len(rounds) {
					t.Fatalf("explorer: %d reports for %d rounds", len(rp.Rounds), len(rounds))
				}
				done := in.NewState()
				for i, round := range rounds {
					rr := rp.Rounds[i]
					_, want := ascendingExhaustive(in, in.CloneState(done), i, round, props)
					in.Mark(done, round...)
					if rr.Round != i || rr.Size != len(round) || !rr.Exhaustive ||
						rr.States != 1<<len(round) || rr.Events != rr.States || rr.Orders != 0 {
						t.Fatalf("explorer report %d = %+v, want the full 2^%d scan of round %d", i, rr, len(round), i)
					}
					if !reflect.DeepEqual(rr.Violation, want) {
						t.Fatalf("round %d: violation %v, reference %v", i, rr.Violation, want)
					}
				}
			})
		}
	}
}

// roundStates enumerates the reachable round states of rounds keyed by
// stateKey.
func roundStates(in *core.Instance, rounds [][]topo.NodeID) map[string]bool {
	out := map[string]bool{}
	done := in.NewState()
	for _, round := range rounds {
		for mask := 0; mask < 1<<len(round); mask++ {
			st := in.CloneState(done)
			for j, v := range round {
				if mask&(1<<j) != 0 {
					in.Mark(st, v)
				}
			}
			out[stateKey(st)] = true
		}
		in.Mark(done, round...)
	}
	out[stateKey(done)] = true
	return out
}

func stateKey(st core.State) string {
	b := make([]byte, 0, 8*len(st))
	for _, w := range st {
		for k := 0; k < 8; k++ {
			b = append(b, byte(w>>(8*k)))
		}
	}
	return string(b)
}

// TestExploreSparsePlanFig1 pins the sparse-plan explorer on the
// Fig.1 Peacock plan: the DAG's full ideal space (45 states — more
// than the 35 round states, since independent chains interleave) is
// enumerated exhaustively and stays clean, and the fingerprint is
// stable.
func TestExploreSparsePlanFig1(t *testing.T) {
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, 0)
	p, err := core.PlanByName(in, core.AlgoPeacock, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Sparse {
		t.Fatalf("expected sparse plan, got %s", p)
	}
	rep, err := Plan(in, p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || !rep.Exhaustive() {
		t.Fatalf("sparse exploration = %s", rep)
	}
	want := "peacock props=NoBlackhole|RelaxedLoopFreedom\n" +
		"round=0 size=7 exhaustive=true states=45 orders=0 events=45\n"
	if got := rep.Fingerprint(); got != want {
		t.Fatalf("fingerprint:\n got  %q\n want %q", got, want)
	}
}

// TestExploreSparsePlanFindsViolation hands the explorer a broken
// sparse plan — Fig.1 with the rule-availability chain edges removed,
// so an old-path switch can flip before its new-only chain has rules
// — and expects a minimized blackhole trace whose events respect the
// remaining dependencies.
func TestExploreSparsePlanFindsViolation(t *testing.T) {
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, 0)
	s, err := core.Peacock(in)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes in schedule order, no edges at all except one (so the plan
	// is not layered and takes the DAG path).
	broken := &core.Plan{Algorithm: "broken", Guarantees: s.Guarantees, Sparse: true}
	for _, round := range s.Layers() {
		for _, v := range round {
			broken.Nodes = append(broken.Nodes, core.PlanNode{Switch: v})
		}
	}
	broken.Nodes[len(broken.Nodes)-1].Deps = []int{0}
	if err := broken.Validate(in); err != nil {
		t.Fatal(err)
	}
	rep, err := Plan(in, broken, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatalf("broken plan explored clean: %s", rep)
	}
	v := rep.FirstViolation()
	if !v.Violated.Has(core.NoBlackhole) {
		t.Fatalf("violated = %s, want a blackhole", v.Violated)
	}
	if len(v.Trace) == 0 {
		t.Fatal("empty violation trace")
	}
	// Verify the plan verifier agrees.
	vrep := verify.Plan(in, broken, s.Guarantees, verify.Options{})
	if vrep.OK() {
		t.Fatalf("verify.Plan passed the broken plan: %s", vrep)
	}
}

// TestMinimizeKeepsIdeals pins core.Instance.Minimize's reachability
// contract, which the explorer's sampled traces rest on:
// shrinking only removes maximal events, so the minimized trace stays
// down-closed under the plan's dependencies — an event a kept event
// depends on survives even when an edgeless stage would have let it
// go.
func TestMinimizeKeepsIdeals(t *testing.T) {
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, 0)
	// Hand-built plan: schedule order [7 8 9 10 11 1 3], the only edge
	// 9 → 3. The trace [9 3] blackholes (3 routes into the rule-less
	// 10); {3} alone also blackholes but is NOT reachable — the plan
	// issues 3 only after 9's barrier — so minimization must keep 9.
	p := &core.Plan{Algorithm: "handmade", Sparse: true}
	order := []topo.NodeID{7, 8, 9, 10, 11, 1, 3}
	for _, v := range order {
		p.Nodes = append(p.Nodes, core.PlanNode{Switch: v})
	}
	p.Nodes[6].Deps = []int{2} // 3 depends on 9
	if err := p.Validate(in); err != nil {
		t.Fatal(err)
	}
	trace := []int{2, 6} // [9 3]
	min, cex := in.Minimize(in.NewState(), p, trace, core.NoBlackhole)
	if cex == nil || !cex.Violated.Has(core.NoBlackhole) {
		t.Fatalf("counterexample = %v, want NoBlackhole", cex)
	}
	if len(min) != 2 || p.Nodes[min[0]].Switch != 9 || p.Nodes[min[1]].Switch != 3 {
		t.Fatalf("minimized = %v, want [9 3] (9 must survive: 3 depends on it)", min)
	}
	// Without the edge every event is maximal and the minimizer
	// shrinks to {3}, unreachable under p; pin that the edge is what
	// kept 9.
	edgeless := &core.Plan{Algorithm: "edgeless", Nodes: make([]core.PlanNode, len(p.Nodes))}
	for i, nd := range p.Nodes {
		edgeless.Nodes[i].Switch = nd.Switch
	}
	unconstrained, _ := in.Minimize(in.NewState(), edgeless, trace, core.NoBlackhole)
	if len(unconstrained) != 1 {
		t.Fatalf("premise broken: unconstrained minimum = %v", unconstrained)
	}
}

// seriesCutPlan is a hand-built sparse Fig.1 plan with exactly one
// series cut: stage 0 = {7, 8} (no edge), stage 1 = {1, 9, 10, 11, 3},
// every node of which waits for both 7 and 8, with the single inner
// edge 9 → 3. The one reachable blackhole — 3 flipped onto the new
// path while 10 has no rule yet — lies past the cut: its minimum ideal
// is {7, 8} ∪ {9, 3}.
func seriesCutPlan(t *testing.T, in *core.Instance) *core.Plan {
	t.Helper()
	p := &core.Plan{Algorithm: "handmade", Sparse: true, Nodes: []core.PlanNode{
		{Switch: 7}, {Switch: 8},
		{Switch: 1, Deps: []int{0, 1}},
		{Switch: 9, Deps: []int{0, 1}},
		{Switch: 10, Deps: []int{0, 1}},
		{Switch: 11, Deps: []int{0, 1}},
		{Switch: 3, Deps: []int{3}},
	}}
	if err := p.Validate(in); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestExploreReportsStageInFlight pins Violation.Round on a sparse plan
// whose only violating ideals lie past its series cut: stage 0 is
// explored exhaustively and clean, the counterexample names stage 1,
// and its trace is an order ideal of stage 1's sub-DAG (3 only after
// 9), tagged with node layers.
func TestExploreReportsStageInFlight(t *testing.T) {
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, 0)
	p := seriesCutPlan(t, in)
	for name, opts := range map[string]Options{
		"exhaustive": {Props: core.NoBlackhole},
		"sampled":    {Props: core.NoBlackhole, MaxExhaustive: 2, Samples: 64, Seed: 1},
	} {
		rep, err := Plan(in, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Rounds) != 2 || rep.Rounds[0].Size != 2 || rep.Rounds[1].Size != 5 {
			t.Fatalf("%s: stages = %+v, want {7 8} then the other five", name, rep.Rounds)
		}
		if r0 := rep.Rounds[0]; !r0.Exhaustive || r0.States != 4 || r0.Violation != nil {
			t.Fatalf("%s: stage 0 = %+v, want 4 states, exhaustive and clean", name, r0)
		}
		v := rep.FirstViolation()
		if v == nil || v != rep.Rounds[1].Violation {
			t.Fatalf("%s: no violation in stage 1: %s", name, rep)
		}
		if v.Round != 1 || v.Violated != core.NoBlackhole {
			t.Fatalf("%s: violation %s, want stage 1, NoBlackhole", name, v)
		}
		want := Trace{{Round: 1, Switch: 9}, {Round: 2, Switch: 3}}
		if !reflect.DeepEqual(v.Trace, want) || !v.Walk.Equal(topo.Path{1, 2, 3, 9, 10}) {
			t.Fatalf("%s: trace %s walk %v, want %s via [1 2 3 9 10]", name, v.Trace, v.Walk, want)
		}
	}
}

// TestExploreEnumeratesWideDAG pins that a stage of more than 64 nodes
// is enumerated, not sampled, when its ideals fit the budget: two
// interleaved chains over reversal(72)'s 71 pending switches have
// 36·37 = 1332 ideals, and the minimum violating one is the lone root
// 71, whose flip loops the walk back at 70.
func TestExploreEnumeratesWideDAG(t *testing.T) {
	ti := topo.Reversal(72)
	in := core.MustInstance(ti.Old, ti.New, 0)
	p := &core.Plan{Algorithm: "twochains", Sparse: true}
	for i, v := range in.Pending() {
		p.Nodes = append(p.Nodes, core.PlanNode{Switch: v})
		if i >= 2 {
			p.Nodes[i].Deps = []int{i - 2}
		}
	}
	rep, err := Plan(in, p, Options{Props: core.RelaxedLoopFreedom, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rr := rep.Rounds[0]
	if len(rep.Rounds) != 1 || rr.Size != 71 || !rr.Exhaustive || rr.States != 1332 {
		t.Fatalf("rounds = %+v, want one exhaustive stage of 71 nodes and 1332 ideals", rep.Rounds)
	}
	if v := rr.Violation; v == nil || v.Trace.String() != "[r0:71]" || v.Violated != core.RelaxedLoopFreedom {
		t.Fatalf("violation %v, want the loop behind [r0:71]", v)
	}
}
