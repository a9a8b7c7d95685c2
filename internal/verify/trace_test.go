package verify

import (
	"math/rand"
	"slices"
	"testing"

	"tsu/internal/core"
	"tsu/internal/topo"
)

// randomStage is a random DAG plan over a small random instance's
// pending switches — the reverse of a random installed ideal when
// reverse is set — and the state its ideals start from: nil forward,
// every covered switch updated for a rollback plan.
func randomStage(rng *rand.Rand, reverse bool) (*core.Instance, *core.Plan, core.State) {
	ti := topo.RandomTwoPath(rng, 4+rng.Intn(8), rng.Intn(2) == 0)
	in := core.MustInstance(ti.Old, ti.New, ti.Waypoint)
	pending := in.Pending()
	rng.Shuffle(len(pending), func(i, j int) { pending[i], pending[j] = pending[j], pending[i] })
	density := rng.Intn(256)
	p := &core.Plan{Algorithm: "random", Sparse: true}
	for i, v := range pending {
		var deps []int
		for d := 0; d < i; d++ {
			if rng.Intn(256) < density {
				deps = append(deps, d)
			}
		}
		p.Nodes = append(p.Nodes, core.PlanNode{Switch: v, Deps: deps})
	}
	if !reverse {
		return in, p, nil
	}
	installed := make([]bool, len(p.Nodes))
	for i, nd := range p.Nodes {
		installed[i] = rng.Intn(4) != 0
		for _, d := range nd.Deps {
			installed[i] = installed[i] && installed[d]
		}
	}
	rev, _, err := p.Reverse(installed)
	if err != nil {
		panic(err)
	}
	return in, rev, rev.BaseState(in)
}

// idealViolates reports whether some order ideal of p, delivered on
// top of pre, violates props — by enumerating core.Plan.IdealStates,
// the reference every search is held to.
func idealViolates(in *core.Instance, pre core.State, p *core.Plan, props core.Property) bool {
	for _, ideal := range p.IdealStates(in) {
		st := in.CloneState(pre)
		for w := range st {
			st[w] ^= ideal[w] // a delivery toggles its switch
		}
		if in.CheckState(st, props) != 0 {
			return true
		}
	}
	return false
}

// assertMinimalTrace holds a trace of stage p (node indices, on top of
// pre) to its contract: in node order, an order ideal of p, violating
// props, and 1-minimal — dropping any node no other kept node depends
// on leaves a state that passes.
func assertMinimalTrace(t *testing.T, in *core.Instance, pre core.State, p *core.Plan, trace []int, props core.Property) {
	t.Helper()
	check := func(nodes []int) core.Property {
		st := in.CloneState(pre)
		for _, i := range nodes {
			st.Toggle(in.NodeIndex(p.Nodes[i].Switch))
		}
		return in.CheckState(st, props)
	}
	if !slices.IsSorted(trace) || len(slices.Compact(slices.Clone(trace))) != len(trace) {
		t.Fatalf("%v: trace %v not in node order", p, trace)
	}
	maximal := make(map[int]bool, len(trace))
	for _, i := range trace {
		maximal[i] = true
	}
	for _, i := range trace {
		for _, d := range p.Nodes[i].Deps {
			if !slices.Contains(trace, d) {
				t.Fatalf("%v: trace %v delivers node %d before its dependency %d", p, trace, i, d)
			}
			maximal[d] = false
		}
	}
	if check(trace) == 0 {
		t.Fatalf("%v on %v: trace %v does not violate %v", p, in, trace, props)
	}
	for k, i := range trace {
		if maximal[i] {
			if v := check(slices.Delete(slices.Clone(trace), k, k+1)); v != 0 {
				t.Fatalf("%v on %v: trace %v is not minimal: without node %d it still violates %v", p, in, trace, i, v)
			}
		}
	}
}

// TestTracesMatchIdealStates is the trace engine's differential test:
// on small random stages, forward and reverse, PlanCounterexample and
// Traces find a trace exactly when some ideal of IdealStates violates,
// and every trace they report is a minimal violating ideal.
func TestTracesMatchIdealStates(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	violating := 0
	for trial := 0; trial < 400; trial++ {
		in, p, pre := randomStage(rng, trial%2 == 1)
		props := core.Property(1+rng.Intn(15)) & (core.NoBlackhole | core.WaypointEnforcement | core.RelaxedLoopFreedom | core.StrongLoopFreedom)
		if props == 0 {
			props = core.NoBlackhole
		}
		want := idealViolates(in, pre, p, props)

		rr := PlanCounterexample(in, p, props, Options{})
		if !rr.Exact || (rr.Violation != nil) != want {
			t.Fatalf("%v on %v, props %v: counterexample %+v, reference violates %t", p, in, props, rr, want)
		}
		if want {
			violating++
			assertMinimalTrace(t, in, pre, p, rr.Trace, props)
		}

		rep := Traces(in, p, props, Options{})
		if !rep.Exact() || (rep.FirstViolation() != nil) != want {
			t.Fatalf("%v on %v, props %v: traces %v, reference violates %t", p, in, props, rep, want)
		}
		stages, _ := Stages(in, p)
		for k, sr := range rep.Rounds {
			if sr.Violation != nil {
				assertMinimalTrace(t, in, stages[k].Pre, stages[k].Plan, sr.Trace, props)
			}
		}
	}
	if violating < 50 {
		t.Fatalf("only %d of 400 stages violate: the reference barely ran", violating)
	}
}
