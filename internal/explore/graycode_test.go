package explore

import (
	"math/rand"
	"reflect"
	"testing"

	"tsu/internal/core"
	"tsu/internal/topo"
	"tsu/internal/verify"
)

// ascendingExhaustive is the pre-Gray-code reference enumerator: every
// subset in ascending-size (then ascending-mask) order via Gosper's
// hack, a fresh CloneState and full walk per subset, first hit wins.
// Kept verbatim so the equivalence test (and the benchmark in
// bench_test.go) compare against the real predecessor.
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

// TestGrayExhaustiveMatchesAscending compares the explorer's exhaustive
// routine on an edge-free stage — where it is the Gray-code scan —
// against the ascending-size reference on random one-round instances
// (n ≤ 12): identical verdicts, and when a violation exists, the
// identical minimum counterexample — same trace, same size, same walk
// — because the Gray scan's (size, mask)-minimal post-pass selects
// exactly the reference's first hit.
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
		if !rep.Exhaustive() {
			t.Fatalf("%v: round of %d not explored exhaustively", in, len(round))
		}
		if rep.Rounds[0].States != 1<<uint(len(round)) {
			t.Fatalf("%v: Gray scan checked %d states, want full 2^%d", in, rep.Rounds[0].States, len(round))
		}
		got := rep.FirstViolation()
		if (got == nil) != (want == nil) {
			t.Fatalf("%v: gray violation = %v, ascending reference = %v", in, got, want)
		}
		if got == nil {
			continue
		}
		violating++
		if got.Violated != want.Violated {
			t.Fatalf("%v: violated %s, reference %s", in, got.Violated, want.Violated)
		}
		if len(got.Trace) != len(want.Trace) {
			t.Fatalf("%v: counterexample size %d, reference minimum %d", in, len(got.Trace), len(want.Trace))
		}
		for i := range got.Trace {
			if got.Trace[i] != want.Trace[i] {
				t.Fatalf("%v: trace %s, reference %s", in, got.Trace, want.Trace)
			}
		}
		if !got.Walk.Equal(want.Walk) {
			t.Fatalf("%v: walk %v, reference %v", in, got.Walk, want.Walk)
		}
		// Minimum-size ⇒ 1-minimal: every strictly smaller subset was
		// checked clean by both enumerators.
		assertOneMinimal(t, in, in.NewState(), got.Trace, props)
	}
	if violating == 0 {
		t.Fatal("test never exercised a violating instance")
	}
}

// TestExhaustiveSparseStageMatchesReference drives the same exhaustive
// routine on stages with inner edges — where it is the ideal DFS — on
// random DAGs over random instances (n ≤ 10), against the reference
// enumerator core.Plan.IdealStates, which lists the order ideals in
// ascending (size, node mask): the same state count, and the first
// violating ideal of that order as the counterexample, delivered in
// node order.
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
		if !rr.Exhaustive || rr.States != len(ideals) || rr.Events != len(ideals) {
			t.Fatalf("%s on %v: %+v, want all %d ideals", p, in, rr, len(ideals))
		}
		if (rr.Violation == nil) != (want == nil) {
			t.Fatalf("%s on %v: violation %v, reference state %v", p, in, rr.Violation, want)
		}
		if want == nil {
			continue
		}
		violating++
		v := rr.Violation
		walk, _ := in.Walk(want)
		if v.Violated != in.CheckState(want, props) || !v.Walk.Equal(walk) ||
			!reflect.DeepEqual(v.Updated, in.StateNodes(want)) {
			t.Fatalf("%s on %v: %s over %v, reference %v", p, in, v, v.Updated, in.StateNodes(want))
		}
		at := 0 // the trace is the ideal in node order
		for _, nd := range p.Nodes {
			if in.Updated(want, nd.Switch) {
				if at >= len(v.Trace) || v.Trace[at].Switch != nd.Switch {
					t.Fatalf("%s on %v: trace %s is not %v in node order", p, in, v.Trace, in.StateNodes(want))
				}
				at++
			}
		}
	}
	if violating == 0 {
		t.Fatal("test never exercised a violating plan")
	}
}

// exploreBenchInstance builds the BenchmarkExploreExhaustive workload:
// a single-policy update whose one-shot schedule is one round of
// exactly 16 pending switches (the old path's ingress plus 15 fresh
// new-path switches), on which relaxed loop freedom can never be
// violated — so both enumerators must cover the full 2^16 state
// lattice, making the comparison work-equivalent.
func exploreBenchInstance(b *testing.B) (*core.Instance, *core.Plan) {
	b.Helper()
	old := topo.Path{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	newPath := topo.Path{1}
	for i := 0; i < 15; i++ {
		newPath = append(newPath, topo.NodeID(101+i))
	}
	newPath = append(newPath, 10)
	in := core.MustInstance(old, newPath, 0)
	sched := core.OneShot(in)
	if sched.Depth() != 1 || len(sched.Layers()[0]) != 16 {
		b.Fatalf("unexpected one-shot shape: %s", sched)
	}
	return in, sched
}

// BenchmarkExploreExhaustive is this PR's acceptance benchmark: the
// Gray-code + incremental-walker exhaustive enumerator against the
// pre-PR reference (ascendingExhaustive above — ascending-size Gosper
// masks, a state clone and a full walk from the source per subset) on
// an n=16 round, 65536 states either way. The acceptance bar is ≥5x
// for graycode-incremental over ascending-clone-reference.
func BenchmarkExploreExhaustive(b *testing.B) {
	in, sched := exploreBenchInstance(b)
	plan := sched
	props := core.RelaxedLoopFreedom
	states := 1 << 16
	b.Run("graycode-incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := Plan(in, plan, Options{Props: props, MaxExhaustive: 16, Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			if !rep.OK() || !rep.Exhaustive() || rep.Rounds[0].States != states {
				b.Fatalf("unexpected verdict: %s", rep)
			}
		}
		b.ReportMetric(float64(states), "states")
	})
	b.Run("ascending-clone-reference", func(b *testing.B) {
		b.ReportAllocs()
		done := in.NewState()
		for i := 0; i < b.N; i++ {
			n, violation := ascendingExhaustive(in, done, 0, sched.Layers()[0], props)
			if violation != nil || n != states {
				b.Fatalf("reference enumerator: %d states, violation %v", n, violation)
			}
		}
		b.ReportMetric(float64(states), "states")
	})
}
