package explore

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"tsu/internal/core"
	"tsu/internal/netem"
	"tsu/internal/topo"
)

// mustPlan builds a layered plan through the registry.
func mustPlan(t *testing.T, in *core.Instance, algo string) *core.Plan {
	t.Helper()
	s, err := core.PlanByName(in, algo, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// assertOneMinimal replays the trace with every single event removed
// and requires each reduced replay to be clean — the 1-minimality
// contract of reported counterexamples.
func assertOneMinimal(t *testing.T, in *core.Instance, done core.State, trace Trace, props core.Property) {
	t.Helper()
	replay := func(tr Trace) core.Property {
		st := in.CloneState(done)
		for _, e := range tr {
			in.Mark(st, e.Switch)
		}
		return in.CheckState(st, props)
	}
	if replay(trace) == 0 {
		t.Fatalf("reported trace %s does not violate on replay", trace)
	}
	for i := range trace {
		reduced := make(Trace, 0, len(trace)-1)
		reduced = append(reduced, trace[:i]...)
		reduced = append(reduced, trace[i+1:]...)
		if v := replay(reduced); v != 0 {
			t.Fatalf("trace %s is not minimal: dropping event %d still violates %s", trace, i, v)
		}
	}
}

// TestExploreFig1Pinned pins the explorer's verdict on the paper's
// Figure 1 scenario. The repository's reconstruction routes the new
// policy over fresh switches (s7–s11), so the adversary's attack on
// the unsafe one-shot schedule is a transient blackhole: the search's
// minimal counterexample is s3 flipping first, sending the flow into
// the rule-less s9. The WayUp schedule survives every interleaving of
// every round.
func TestExploreFig1Pinned(t *testing.T) {
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	props := core.NoBlackhole | core.RelaxedLoopFreedom | core.WaypointEnforcement

	oneshot, err := Plan(in, mustPlan(t, in, core.AlgoOneShot), Options{Props: props})
	if err != nil {
		t.Fatal(err)
	}
	if !oneshot.Exhaustive() {
		t.Fatalf("fig1 one-shot round (7 switches) should be explored exhaustively")
	}
	v := oneshot.FirstViolation()
	if v == nil {
		t.Fatal("explorer missed the one-shot violation on Fig.1")
	}
	if !v.Violated.Has(core.NoBlackhole) {
		t.Fatalf("fig1 one-shot violation = %s, want NoBlackhole", v.Violated)
	}
	want := Trace{{Round: 0, Switch: 3}}
	if len(v.Trace) != 1 || v.Trace[0] != want[0] {
		t.Fatalf("fig1 minimal trace = %s, want %s", v.Trace, want)
	}
	if !v.Walk.Equal(topo.Path{1, 2, 3, 9}) {
		t.Fatalf("fig1 violating walk = %v, want [1 2 3 9]", v.Walk)
	}
	assertOneMinimal(t, in, in.NewState(), v.Trace, props)

	// The safe schedule on the same instance: no interleaving of any
	// round violates its guarantees (waypoint enforcement, blackhole
	// freedom).
	wayup, err := Plan(in, mustPlan(t, in, core.AlgoWayUp), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !wayup.OK() || !wayup.Exhaustive() {
		t.Fatalf("wayup must survive all interleavings exhaustively: %s", wayup)
	}
}

// TestExploreTransientLoopPinned pins the transient forwarding loop —
// the headline failure mode of asynchronous updates (the drawn Fig.1
// permutation is not recoverable from the paper text; the loop lives
// on the path-reversal family). One-shot lets s3's rule flip first,
// bouncing packets back to s2 along the old path; the explorer must
// return that exact minimal one-event trace. Peacock, the safe
// schedule for relaxed loop freedom, survives every interleaving of
// the same instance.
func TestExploreTransientLoopPinned(t *testing.T) {
	ti := topo.Reversal(6) // old 1..6, new 1,5,4,3,2,6
	in := core.MustInstance(ti.Old, ti.New, 0)

	oneshot, err := Plan(in, mustPlan(t, in, core.AlgoOneShot), Options{Props: core.RelaxedLoopFreedom})
	if err != nil {
		t.Fatal(err)
	}
	v := oneshot.FirstViolation()
	if v == nil {
		t.Fatal("explorer missed the transient loop on the reversal instance")
	}
	if v.Violated != core.RelaxedLoopFreedom {
		t.Fatalf("violated = %s, want RelaxedLoopFreedom", v.Violated)
	}
	want := Trace{{Round: 0, Switch: 3}}
	if len(v.Trace) != 1 || v.Trace[0] != want[0] {
		t.Fatalf("minimal loop trace = %s, want %s", v.Trace, want)
	}
	if !v.Walk.Equal(topo.Path{1, 2, 3, 2}) {
		t.Fatalf("loop walk = %v, want [1 2 3 2]", v.Walk)
	}
	assertOneMinimal(t, in, in.NewState(), v.Trace, core.RelaxedLoopFreedom)

	peacock, err := Plan(in, mustPlan(t, in, core.AlgoPeacock), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !peacock.OK() {
		t.Fatalf("peacock must survive all interleavings: %s", peacock)
	}
}

// TestExploreSampledFindsViolation gives a round of 29 switches —
// 2^29 ideals — a budget of 2^8 branch points: the search still finds
// the reversal's loop, and reports it decided and minimal.
func TestExploreSampledFindsViolation(t *testing.T) {
	ti := topo.Reversal(30)
	in := core.MustInstance(ti.Old, ti.New, 0)
	sched := mustPlan(t, in, core.AlgoOneShot)
	if sched.Depth() != 1 || len(sched.Layers()[0]) <= 8 {
		t.Fatalf("unexpected one-shot shape: %s", sched)
	}
	rep, err := Plan(in, sched, Options{Props: core.RelaxedLoopFreedom, MaxExhaustive: 8})
	if err != nil {
		t.Fatal(err)
	}
	v := rep.FirstViolation()
	if v == nil || !rep.Exhaustive() || rep.BranchPoints() > 1<<8 {
		t.Fatalf("search missed the reversal loop within 2^8 branch points: %s", rep)
	}
	assertOneMinimal(t, in, in.NewState(), v.Trace, core.RelaxedLoopFreedom)
}

// TestExploreSeededDeterminism is the determinism table: identical
// explorer verdicts (fingerprints) on every run and worker count, and
// for the same seed identical timed-replay event logs, across repeated
// in-process runs — and, via the CI `-run Explore -count=2` job, across
// process restarts and under -race.
func TestExploreSeededDeterminism(t *testing.T) {
	cases := []struct {
		name string
		seed int64
		n    int
		wp   bool
		algo string
	}{
		{"fig1-oneshot", 7, 0, false, core.AlgoOneShot},
		{"random16-oneshot", 11, 16, true, core.AlgoOneShot},
		{"random40-oneshot-sampled", 23, 40, false, core.AlgoOneShot},
		{"random40-peacock", 23, 40, false, core.AlgoPeacock},
		{"reversal24-oneshot-sampled", 5, 24, false, core.AlgoOneShot},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var in *core.Instance
			switch {
			case tc.n == 0:
				in = core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
			case tc.name[:8] == "reversal":
				ti := topo.Reversal(tc.n)
				in = core.MustInstance(ti.Old, ti.New, 0)
			default:
				rng := rand.New(rand.NewSource(tc.seed))
				ti := topo.RandomTwoPath(rng, tc.n, tc.wp)
				in = core.MustInstance(ti.Old, ti.New, ti.Waypoint)
			}
			if in.NumPending() == 0 {
				t.Skip("degenerate instance")
			}
			sched := mustPlan(t, in, tc.algo)
			opts := Options{MaxExhaustive: 6}
			rep1, err := Plan(in, sched, opts)
			if err != nil {
				t.Fatal(err)
			}
			rep2, err := Plan(in, sched, opts)
			if err != nil {
				t.Fatal(err)
			}
			if fp1, fp2 := rep1.Fingerprint(), rep2.Fingerprint(); fp1 != fp2 {
				t.Fatalf("same seed, different verdicts:\n%s\nvs\n%s", fp1, fp2)
			}
			if rep1.BranchPoints() == 0 {
				t.Fatal("exploration branched on no switch")
			}
			// Parallel exploration must merge deterministically: the
			// fingerprint is identical for every worker count,
			// including the serial baseline.
			for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				wopts := opts
				wopts.Workers = workers
				repW, err := Plan(in, sched, wopts)
				if err != nil {
					t.Fatal(err)
				}
				if fp := repW.Fingerprint(); fp != rep1.Fingerprint() {
					t.Fatalf("workers=%d changed the verdict:\n%s\nvs\n%s", workers, fp, rep1.Fingerprint())
				}
			}

			topts := TimedOptions{
				Ctrl:      netem.Uniform{Min: 0, Max: 3 * time.Millisecond},
				Install:   netem.Pareto{Scale: time.Millisecond, Alpha: 1.5, Cap: 20 * time.Millisecond},
				Barrier:   netem.Fixed(500 * time.Microsecond),
				Seed:      tc.seed,
				RecordLog: true,
			}
			tr1, err := Timed(in, sched, topts)
			if err != nil {
				t.Fatal(err)
			}
			tr2, err := Timed(in, sched, topts)
			if err != nil {
				t.Fatal(err)
			}
			if len(tr1.Log) != len(tr2.Log) {
				t.Fatalf("timed logs differ in length: %d vs %d", len(tr1.Log), len(tr2.Log))
			}
			for i := range tr1.Log {
				if tr1.Log[i] != tr2.Log[i] {
					t.Fatalf("timed log line %d differs:\n%s\nvs\n%s", i, tr1.Log[i], tr2.Log[i])
				}
			}
			if tr1.Events != in.NumPending() {
				t.Fatalf("timed replay executed %d events, want %d (one per pending switch)", tr1.Events, in.NumPending())
			}
			if tr1.Makespan != tr2.Makespan {
				t.Fatalf("timed makespan diverged: %v vs %v", tr1.Makespan, tr2.Makespan)
			}
		})
	}
}

// TestExploreTimedFig1 exercises the timed virtual-clock replay on the
// Fig.1 scenario: the unsafe one-shot run must cross a violating state
// and report a minimized trace; the WayUp run must stay clean in every
// sampled timing.
func TestExploreTimedFig1(t *testing.T) {
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	props := core.NoBlackhole | core.RelaxedLoopFreedom | core.WaypointEnforcement
	opts := TimedOptions{
		Ctrl:    netem.Uniform{Min: 0, Max: 3 * time.Millisecond},
		Install: netem.Uniform{Min: 500 * time.Microsecond, Max: 3 * time.Millisecond},
		Props:   props,
		Seed:    3,
	}
	one, err := Timed(in, mustPlan(t, in, core.AlgoOneShot), opts)
	if err != nil {
		t.Fatal(err)
	}
	if one.Violations == 0 || one.First == nil {
		t.Fatalf("timed one-shot replay saw no violating state: %+v", one)
	}
	assertOneMinimal(t, in, in.NewState(), one.First.Trace, props)
	if one.Makespan <= 0 {
		t.Fatalf("timed replay has non-positive makespan %v", one.Makespan)
	}

	way, err := Timed(in, mustPlan(t, in, core.AlgoWayUp), TimedOptions{
		Ctrl:    opts.Ctrl,
		Install: opts.Install,
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if way.Violations != 0 {
		t.Fatalf("timed wayup replay violated its guarantees: %+v", way.First)
	}
}

// TestExploreRejectsBadSchedule: structural mismatches surface as
// errors, not as explorations of nonsense.
func TestExploreRejectsBadSchedule(t *testing.T) {
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	bad := core.Layered("bogus", 0, [][]topo.NodeID{{2}})
	if _, err := Plan(in, bad, Options{}); err == nil {
		t.Fatal("explore accepted a schedule that does not fit the instance")
	}
	if _, err := Timed(in, bad, TimedOptions{}); err == nil {
		t.Fatal("timed replay accepted a schedule that does not fit the instance")
	}
}

// TestExploreTimedTraceLayers pins Event.Round in Timed's traces: it is
// the node's layer in the plan, as in Plan's. On a sparse Fig.1 plan
// with the chain 8 → 1 → 3, seed 7 lets 1 flip before 7 has its rule;
// both report the violation as [r0:8 r1:1], 1 sitting on layer 1.
func TestExploreTimedTraceLayers(t *testing.T) {
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	props := core.NoBlackhole | core.RelaxedLoopFreedom | core.WaypointEnforcement
	p := &core.Plan{Algorithm: "chain", Sparse: true, Nodes: []core.PlanNode{
		{Switch: 7}, {Switch: 8}, {Switch: 9}, {Switch: 10}, {Switch: 11},
		{Switch: 1, Deps: []int{1}},
		{Switch: 3, Deps: []int{5}},
	}}
	timed, err := Timed(in, p, TimedOptions{
		Ctrl:    netem.Uniform{Min: 0, Max: 3 * time.Millisecond},
		Install: netem.Uniform{Min: 500 * time.Microsecond, Max: 3 * time.Millisecond},
		Props:   props,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Plan(in, p, Options{Props: props})
	if err != nil {
		t.Fatal(err)
	}
	want := "[r0:8 r1:1]"
	if v := rep.FirstViolation(); v == nil || v.Trace.String() != want {
		t.Fatalf("Plan's violation %v, want trace %s", v, want)
	}
	if v := timed.First; v == nil || v.Trace.String() != want {
		t.Fatalf("Timed's violation %v, want trace %s", v, want)
	}
}
