package explore

import (
	"math/rand"
	"reflect"
	"testing"

	"tsu/internal/core"
	"tsu/internal/topo"
	"tsu/internal/verify"
)

// ascendingExhaustive is the reference round enumerator: every subset
// in ascending-size (then ascending-mask) order via Gosper's hack, a
// fresh CloneState and full walk per subset, first hit wins — the
// minimum violating subset, against which the search's verdict on an
// edge-free stage is checked.
func ascendingExhaustive(in *core.Instance, done core.State, roundIdx int, round []topo.NodeID, props core.Property) (states int, violation *Violation) {
	n := len(round)
	check := func(m uint32) bool {
		st := in.CloneState(done)
		var trace Trace
		for i, v := range round {
			if m&(1<<uint(i)) != 0 {
				in.Mark(st, v)
				trace = append(trace, Event{Round: roundIdx, Switch: v})
			}
		}
		states++
		if violated := in.CheckState(st, props); violated != 0 {
			walk, _ := in.Walk(st)
			violation = &Violation{
				Round:    roundIdx,
				Violated: violated,
				Trace:    trace,
				Walk:     walk,
				Updated:  in.StateNodes(in.StateOf(trace.Switches()...)),
			}
			return true
		}
		return false
	}
	for k := 0; k <= n; k++ {
		if k == 0 {
			if check(0) {
				return states, violation
			}
			continue
		}
		last := uint32(1<<uint(n)) - uint32(1<<uint(n-k))
		for m := uint32(1<<uint(k)) - 1; ; {
			if check(m) {
				return states, violation
			}
			if m == last {
				break
			}
			c := m & -m
			r := m + c
			m = (((r ^ m) >> 2) / c) | r
		}
	}
	return states, violation
}

// TestGrayExhaustiveMatchesAscending holds the explorer's search on
// an edge-free stage — where the Gray-code scan used to run — to the
// ascending-size reference on random one-round instances (n ≤ 12):
// decided within 2^n branch points, a violation exactly when the
// reference finds one, and a reported trace that is no larger than the
// reference's minimum plus what 1-minimality allows — it violates, and
// dropping any single event makes it pass.
func TestGrayExhaustiveMatchesAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	props := core.NoBlackhole | core.RelaxedLoopFreedom | core.WaypointEnforcement
	checked, violating := 0, 0
	for trial := 0; checked < 60; trial++ {
		var in *core.Instance
		if trial%4 == 0 {
			ti := topo.Reversal(4 + rng.Intn(8))
			in = core.MustInstance(ti.Old, ti.New, 0)
		} else {
			ti := topo.RandomTwoPath(rng, 4+rng.Intn(10), trial%2 == 0)
			in = core.MustInstance(ti.Old, ti.New, ti.Waypoint)
		}
		if in.NumPending() == 0 || in.NumPending() > 12 {
			continue
		}
		checked++
		sched := core.OneShot(in)
		round := sched.Layers()[0]

		_, want := ascendingExhaustive(in, in.NewState(), 0, round, props)
		rep, err := Plan(in, sched, Options{Props: props, MaxExhaustive: 12})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Exhaustive() || rep.Rounds[0].BranchPoints > 1<<len(round) {
			t.Fatalf("%v: round of %d not decided within 2^%d branch points: %+v", in, len(round), len(round), rep.Rounds[0])
		}
		got := rep.FirstViolation()
		if (got == nil) != (want == nil) {
			t.Fatalf("%v: violation = %v, ascending reference = %v", in, got, want)
		}
		if got == nil {
			continue
		}
		violating++
		if len(got.Trace) < len(want.Trace) {
			t.Fatalf("%v: trace %s is smaller than the reference minimum %s", in, got.Trace, want.Trace)
		}
		st := in.StateOf(got.Trace.Switches()...)
		walk, _ := in.Walk(st)
		if got.Violated != in.CheckState(st, props) || !got.Walk.Equal(walk) || !reflect.DeepEqual(got.Updated, in.StateNodes(st)) {
			t.Fatalf("%v: %s over %v does not describe the state of its trace", in, got, got.Updated)
		}
		assertOneMinimal(t, in, in.NewState(), got.Trace, props)
	}
	if violating == 0 {
		t.Fatal("test never exercised a violating instance")
	}
}

// TestExhaustiveSparseStageMatchesReference holds the search on stages
// with inner edges, on random DAGs over random instances (n ≤ 10), to
// the reference enumerator core.Plan.IdealStates: decided within as
// many branch points as there are ideals, a violation exactly when
// some ideal violates, and a trace that is an ideal in node order,
// violates, and passes once any node no other kept node depends on is
// dropped.
func TestExhaustiveSparseStageMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	checked, violating := 0, 0
	for checked < 60 {
		ti := topo.RandomTwoPath(rng, 4+rng.Intn(10), checked%2 == 0)
		in := core.MustInstance(ti.Old, ti.New, ti.Waypoint)
		n := in.NumPending()
		if n < 3 || n > 10 {
			continue
		}
		d := core.NewPlanDraft(in)
		for e := 1 + rng.Intn(n); e > 0; e-- {
			_ = d.AddEdge(rng.Intn(n), rng.Intn(n)) // loops, duplicates and cycles are refused
		}
		p := d.Plan("random", 0)
		if p.NumEdges() == 0 {
			continue
		}
		checked++
		props := in.NaturalProps()
		ideals := p.IdealStates(in)
		var want core.State
		for _, st := range ideals {
			if in.CheckState(st, props) != 0 {
				want = st
				break
			}
		}
		rr := roundReport(in, p, p.NodeLayers(), verify.PlanCounterexample(in, p, props, Options{}.withDefaults().engine()))
		if !rr.Exhaustive || rr.BranchPoints > len(ideals) {
			t.Fatalf("%s on %v: %+v, want decided within its %d ideals", p, in, rr, len(ideals))
		}
		if (rr.Violation == nil) != (want == nil) {
			t.Fatalf("%s on %v: violation %v, reference state %v", p, in, rr.Violation, want)
		}
		if want == nil {
			continue
		}
		violating++
		v := rr.Violation
		st := in.StateOf(v.Trace.Switches()...)
		walk, _ := in.Walk(st)
		if v.Violated != in.CheckState(st, props) || !v.Walk.Equal(walk) || !reflect.DeepEqual(v.Updated, in.StateNodes(st)) {
			t.Fatalf("%s on %v: %s over %v does not describe the state of its trace", p, in, v, v.Updated)
		}
		var trace []int // the trace as node indices, in node order
		for i, nd := range p.Nodes {
			if in.Updated(st, nd.Switch) {
				if len(trace) >= len(v.Trace) || v.Trace[len(trace)].Switch != nd.Switch {
					t.Fatalf("%s on %v: trace %s is not in node order", p, in, v.Trace)
				}
				trace = append(trace, i)
			}
		}
		for _, i := range trace {
			maximal := true
			for _, j := range trace {
				for _, dep := range p.Nodes[j].Deps {
					if dep == i {
						maximal = false
					}
				}
			}
			for _, dep := range p.Nodes[i].Deps {
				if !in.Updated(st, p.Nodes[dep].Switch) {
					t.Fatalf("%s on %v: trace %s delivers node %d before its dependency %d", p, in, v.Trace, i, dep)
				}
			}
			if maximal {
				less := in.CloneState(st)
				less.Clear(in.NodeIndex(p.Nodes[i].Switch))
				if got := in.CheckState(less, props); got != 0 {
					t.Fatalf("%s on %v: trace %s is not minimal: without node %d it still violates %s", p, in, v.Trace, i, got)
				}
			}
		}
	}
	if violating == 0 {
		t.Fatal("test never exercised a violating plan")
	}
}
