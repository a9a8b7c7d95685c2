package verify

import (
	"slices"
	"testing"

	"tsu/internal/core"
	"tsu/internal/topo"
)

// TestVerifyPlanSparse pins the plan verifier on the Fig.1 sparse
// Peacock plan: the full ideal space is decided exactly and clean,
// and the final state is the new path.
func TestVerifyPlanSparse(t *testing.T) {
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, 0)
	p, err := core.PlanByName(in, core.AlgoPeacock, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Sparse {
		t.Fatalf("expected sparse plan, got %s", p)
	}
	rep := Plan(in, p, p.Guarantees, Options{})
	if !rep.OK() || !rep.Exact() || !rep.FinalStateOK {
		t.Fatalf("sparse plan verify = %s (final ok %t)", rep, rep.FinalStateOK)
	}
	if len(rep.Rounds) != 1 || rep.Rounds[0].Size != p.NumNodes() {
		t.Fatalf("rounds = %+v", rep.Rounds)
	}
}

// TestVerifyPlanSampledFallback pins Traces on a broken plan: the
// search catches it with a minimal trace, deterministically, and under
// a budget of one branch point the stage is inexact and clean — a
// search that cannot finish reports nothing it did not find.
func TestVerifyPlanSampledFallback(t *testing.T) {
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, 0)
	s, err := core.Peacock(in)
	if err != nil {
		t.Fatal(err)
	}
	// A dependency-free plan (with one token edge so it is not
	// layered): old-path switches can flip before their chains.
	broken := &core.Plan{Algorithm: "broken", Guarantees: s.Guarantees, Sparse: true}
	for _, round := range s.Layers() {
		for _, v := range round {
			broken.Nodes = append(broken.Nodes, core.PlanNode{Switch: v})
		}
	}
	broken.Nodes[len(broken.Nodes)-1].Deps = []int{0}
	rep := Traces(in, broken, s.Guarantees, Options{})
	rr := rep.Rounds[0]
	if rep.OK() || !rr.Exact || len(rr.Trace) == 0 {
		t.Fatalf("traces missed the violation: %s", rep)
	}
	assertMinimalTrace(t, in, nil, broken, rr.Trace, s.Guarantees)
	if again := Traces(in, broken, s.Guarantees, Options{}); rep.String() != again.String() ||
		!slices.Equal(again.Rounds[0].Trace, rr.Trace) {
		t.Fatalf("traces not deterministic:\n %s %v\n %s %v", rep, rr.Trace, again, again.Rounds[0].Trace)
	}
	if rep := Traces(in, broken, s.Guarantees, Options{Budget: 1}); !rep.OK() || rep.Exact() {
		t.Fatalf("traces at budget 1 = %s, want inexact and clean", rep)
	}
}

// TestVerifyReportsStageInFlight pins RoundResult.Round on a hand-built
// sparse Fig.1 plan with exactly one series cut — stage 0 = {7, 8},
// stage 1 = {1, 9, 10, 11, 3}, each of which waits for both 7 and 8,
// with the inner edge 9 → 3 — whose only violating ideals lie past the
// cut (3 flipped while 10 or 11 has no rule yet): stage 0 is exact and
// clean, the counterexample is reported for stage 1, and its state is
// all of stage 0 plus an order ideal of stage 1's sub-DAG.
func TestVerifyReportsStageInFlight(t *testing.T) {
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, 0)
	p := &core.Plan{Algorithm: "handmade", Sparse: true, Nodes: []core.PlanNode{
		{Switch: 7}, {Switch: 8},
		{Switch: 1, Deps: []int{0, 1}},
		{Switch: 9, Deps: []int{0, 1}},
		{Switch: 10, Deps: []int{0, 1}},
		{Switch: 11, Deps: []int{0, 1}},
		{Switch: 3, Deps: []int{3}},
	}}
	rep := Plan(in, p, core.NoBlackhole, Options{})
	if rep.StructureErr != nil || !rep.FinalStateOK || len(rep.Rounds) != 2 {
		t.Fatalf("%s with %d stages (structure %v)", rep, len(rep.Rounds), rep.StructureErr)
	}
	if r0 := rep.Rounds[0]; r0.Round != 0 || r0.Size != 2 || !r0.Exact || r0.Violation != nil {
		t.Fatalf("stage 0 = %+v, want {7 8} exact and clean", r0)
	}
	r1 := rep.Rounds[1]
	if r1.Round != 1 || r1.Size != 5 || !r1.Exact || r1.Violation == nil || rep.FirstViolation() != r1.Violation {
		t.Fatalf("stage 1 = %+v, want the violation", r1)
	}
	st := r1.Violation.Updated
	if r1.Violation.Violated != core.NoBlackhole ||
		!in.Updated(st, 7) || !in.Updated(st, 8) || // all of stage 0
		!in.Updated(st, 3) || !in.Updated(st, 9) || // 3, and so 9 before it
		in.Updated(st, 10) && in.Updated(st, 11) { // a rule-less hop behind 9
		t.Fatalf("counterexample %v over %v, want {7 8} ∪ an ideal of stage 1 with 9, 3 and not both of 10, 11",
			r1.Violation, in.StateNodes(st))
	}
}
