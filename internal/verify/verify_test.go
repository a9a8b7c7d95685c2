package verify

import (
	"math/rand"
	"slices"
	"testing"

	"tsu/internal/core"
	"tsu/internal/topo"
)

func TestScheduleAcceptsCorrectSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		ti := topo.RandomTwoPath(rng, 4+rng.Intn(12), true)
		in := core.MustInstance(ti.Old, ti.New, ti.Waypoint)

		w, err := core.WayUp(in)
		if err != nil {
			t.Fatal(err)
		}
		r := Plan(in, w, w.Guarantees, Options{})
		if !r.OK() {
			t.Fatalf("wayup rejected: %v", r)
		}

		p, err := core.Peacock(in)
		if err != nil {
			t.Fatal(err)
		}
		r = Plan(in, p, p.Guarantees, Options{})
		if !r.OK() {
			t.Fatalf("peacock rejected: %v", r)
		}
	}
}

func TestScheduleRejectsOneShotOnAdversarial(t *testing.T) {
	ti := topo.Reversal(10)
	in := core.MustInstance(ti.Old, ti.New, 0)
	s := core.OneShot(in)
	r := Plan(in, s, core.NoBlackhole|core.RelaxedLoopFreedom, Options{})
	if r.OK() {
		t.Fatal("one-shot on reversal(10) must fail relaxed loop freedom")
	}
	cex := r.FirstViolation()
	if cex == nil {
		t.Fatal("no counterexample recorded")
	}
	if got := in.CheckState(cex.Updated, core.NoBlackhole|core.RelaxedLoopFreedom); got == 0 {
		t.Fatalf("counterexample state %v exhibits no violation", cex.Updated)
	}
}

func TestScheduleRejectsWaypointBypass(t *testing.T) {
	in := core.MustInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 3, 2, 4}, 2)
	s := core.OneShot(in)
	r := Plan(in, s, core.WaypointEnforcement, Options{})
	if r.OK() {
		t.Fatal("one-shot bypass not detected")
	}
	if v := r.FirstViolation(); v == nil || !v.Violated.Has(core.WaypointEnforcement) {
		t.Fatalf("violation = %v, want waypoint", r.FirstViolation())
	}
}

func TestScheduleStructureErrors(t *testing.T) {
	in := core.MustInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 3, 2, 4}, 0)
	bad := core.Layered("bad", 0, [][]topo.NodeID{{1}})
	r := Plan(in, bad, core.NoBlackhole, Options{})
	if r.OK() || r.StructureErr == nil {
		t.Fatalf("structure error not reported: %v", r)
	}
	if r.String() == "" {
		t.Fatal("empty report string")
	}
}

func TestScheduleFinalState(t *testing.T) {
	// A structurally valid, per-round safe schedule always ends in the
	// new path; synthesize one manually and check FinalStateOK.
	in := core.MustInstance(topo.Path{1, 2, 3}, topo.Path{1, 4, 3}, 0)
	s := core.Layered("manual", 0, [][]topo.NodeID{{4}, {1}})
	r := Plan(in, s, core.NoBlackhole|core.RelaxedLoopFreedom, Options{})
	if !r.OK() || !r.FinalStateOK {
		t.Fatalf("manual schedule rejected: %v", r)
	}
}

// TestSampledFallbackOnSafeHugeRound pins Traces on Peacock's bulk
// round of the 40-switch reversal — safe, 36 switches, 2^36 ideals: the
// walk reaches no bulk switch while it is in flight, so the search
// decides the round clean without a branch point, under the default
// budget and under a budget of 2 alike.
func TestSampledFallbackOnSafeHugeRound(t *testing.T) {
	in, p := reversal40Peacock(t)
	props := core.RelaxedLoopFreedom | core.NoBlackhole
	for _, budget := range []int{0, 2} {
		r := Traces(in, p, props, Options{Budget: budget})
		if bulk := r.Rounds[1]; !r.OK() || !r.Exact() || bulk.Size != 36 || bulk.BranchPoints != 0 || len(bulk.Trace) != 0 {
			t.Fatalf("budget %d: traces = %v, bulk round %+v: want 36 switches decided clean", budget, r, bulk)
		}
	}
}

// TestExhaustedRoundWithinBudgetIsExact pins Traces on a stage with
// at most Budget ideals: branch points never outnumber them, so its
// verdict is exact.
func TestExhaustedRoundWithinBudgetIsExact(t *testing.T) {
	in, p := reversal40Peacock(t)
	props := core.RelaxedLoopFreedom | core.NoBlackhole
	if first := p.Layers()[0]; len(first) != 2 {
		t.Fatalf("first round %v: want two switches", first)
	}
	r := Traces(in, p, props, Options{Budget: 8})
	if !r.OK() {
		t.Fatalf("verify = %v, want ok", r)
	}
	if rr := r.Rounds[0]; !rr.Exact || rr.BranchPoints < 1 || rr.BranchPoints > 4 {
		t.Fatalf("round 0 = %+v, want it decided in at most its 4 ideals' branch points", rr)
	}
}

// TestPlanPastBudgetIsInexact pins the verdict past the budget: the
// branching search gives up on a stage it cannot exhaust in Budget
// branch points, and Plan reports that stage inexact, with no violation
// and the whole budget spent. One branch point more decides the same
// stage.
func TestPlanPastBudgetIsInexact(t *testing.T) {
	in, p := combPeacock(t)
	props := core.RelaxedLoopFreedom | core.NoBlackhole
	r := Plan(in, p, props, Options{Budget: 254})
	if r.Exact() || !r.OK() {
		t.Fatalf("verify = %v, want inexact and ok", r)
	}
	if rr := r.Rounds[1]; rr.Exact || rr.Violation != nil || rr.BranchPoints != 254 {
		t.Fatalf("teeth round %+v, want inexact and clean after all 254 branch points", rr)
	}
	if got := r.String(); got != "verify peacock NoBlackhole|RelaxedLoopFreedom: ok (inexact, 2 rounds)" {
		t.Fatalf("report = %q", got)
	}
	if r := Plan(in, p, props, Options{Budget: 255}); !r.Exact() || !r.OK() {
		t.Fatalf("verify at 255 = %v, want exact and ok", r)
	}
}

// combPeacock is Peacock's plan on topo.Comb(8, 1): two edge-free
// rounds of 8 switches, the detours and then the teeth. The walk
// search splits at every tooth and rejoins the spine behind it, so the
// teeth round takes 255 branch points, one fewer than its 256 ideals.
func combPeacock(t *testing.T) (*core.Instance, *core.Plan) {
	t.Helper()
	ti := topo.Comb(8, 1)
	in := core.MustInstance(ti.Old, ti.New, 0)
	s, err := core.Peacock(in)
	if err != nil {
		t.Fatal(err)
	}
	return in, s
}

// reversal40Peacock is Peacock's plan on the 40-switch reversal: three
// edge-free rounds of 2, 36 and 1 switches.
func reversal40Peacock(t *testing.T) (*core.Instance, *core.Plan) {
	t.Helper()
	ti := topo.Reversal(40)
	in := core.MustInstance(ti.Old, ti.New, 0)
	s, err := core.Peacock(in)
	if err != nil {
		t.Fatal(err)
	}
	return in, s
}

func TestInexactButViolatingRoundStillFails(t *testing.T) {
	// One-shot on a big reversal: whether the exact search finishes or
	// not, the violation must surface.
	ti := topo.Reversal(40)
	in := core.MustInstance(ti.Old, ti.New, 0)
	s := core.OneShot(in)
	r := Plan(in, s, core.RelaxedLoopFreedom|core.NoBlackhole, Options{Budget: 64})
	if r.OK() {
		t.Fatal("one-shot violation missed on reversal(40)")
	}
}

func TestSampleRoundFindsFullSubsetViolation(t *testing.T) {
	// Violation only in the full subset: old 1→2→3, new 1→4→3 with
	// round {1} on done {}: subset {1} drops at 4. A budget of one
	// branch point decides the round: the walk branches at 1 and drops
	// at 4 on its first branch.
	in := core.MustInstance(topo.Path{1, 2, 3}, topo.Path{1, 4, 3}, 0)
	p := core.Layered("full", 0, [][]topo.NodeID{{1}, {4}})
	r := Traces(in, p, core.NoBlackhole, Options{Budget: 1})
	rr := r.Rounds[0]
	if !rr.Exact || rr.BranchPoints != 1 || len(rr.Trace) != 1 || rr.Trace[0] != 0 {
		t.Fatalf("round 0 = %+v, want the full stage decided in one branch point", rr)
	}
	if cex := rr.Violation; cex == nil || !cex.Violated.Has(core.NoBlackhole) || !in.Updated(cex.Updated, 1) {
		t.Fatalf("cex = %v, want the blackhole of {1}", rr.Violation)
	}
}

func TestReportExactAndOK(t *testing.T) {
	in := core.MustInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 3, 2, 4}, 0)
	p, err := core.Peacock(in)
	if err != nil {
		t.Fatal(err)
	}
	r := Plan(in, p, p.Guarantees, Options{})
	if !r.OK() || !r.Exact() {
		t.Fatalf("peacock on tiny instance must verify exactly: %v", r)
	}
	if r.FirstViolation() != nil {
		t.Fatal("unexpected violation")
	}
	for _, rr := range r.Rounds {
		if rr.Size == 0 {
			t.Fatal("round size not recorded")
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Budget != core.DefaultCheckBudget {
		t.Fatalf("defaults = %+v", o)
	}
	if o.Workers < 1 {
		t.Fatalf("Workers default = %d", o.Workers)
	}
	o = Options{Budget: 5, Workers: 3}.withDefaults()
	if o.Budget != 5 || o.Workers != 3 {
		t.Fatalf("overrides lost: %+v", o)
	}
}

// reportsEqual compares everything the engine computes: per-round
// verdicts (including the concrete counterexample state and walk) and
// the overall outcome.
func reportsEqual(t *testing.T, a, b *Report) {
	t.Helper()
	if a.OK() != b.OK() || a.Exact() != b.Exact() || len(a.Rounds) != len(b.Rounds) {
		t.Fatalf("reports differ: %v vs %v", a, b)
	}
	for i := range a.Rounds {
		ra, rb := a.Rounds[i], b.Rounds[i]
		if ra.Exact != rb.Exact || ra.Size != rb.Size || ra.BranchPoints != rb.BranchPoints ||
			!slices.Equal(ra.Trace, rb.Trace) || (ra.Violation == nil) != (rb.Violation == nil) {
			t.Fatalf("round %d differs: %+v vs %+v", i, ra, rb)
		}
		if ra.Violation != nil {
			if ra.Violation.Violated != rb.Violation.Violated || !ra.Violation.Walk.Equal(rb.Violation.Walk) {
				t.Fatalf("round %d counterexamples differ: %v vs %v", i, ra.Violation, rb.Violation)
			}
		}
	}
}

// TestParallelMatchesSerial pins the engine's determinism contract: the
// report is identical for every worker count, on safe and unsafe
// schedules, exact and inexact.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		ti := topo.RandomTwoPath(rng, 6+rng.Intn(24), true)
		in := core.MustInstance(ti.Old, ti.New, ti.Waypoint)
		props := core.NoBlackhole | core.WaypointEnforcement | core.RelaxedLoopFreedom
		for _, s := range []*core.Plan{core.OneShot(in), mustWayUp(t, in)} {
			// A small budget may leave the larger draws' stages
			// inexact; the fixed case below always does.
			opts := Options{Budget: 1 << 10}
			serial := Plan(in, s, props, Options{Budget: opts.Budget, Workers: 1})
			for _, workers := range []int{2, 4, 8} {
				par := Plan(in, s, props, Options{Budget: opts.Budget, Workers: workers})
				reportsEqual(t, serial, par)
			}
		}
	}
	// Past a tiny budget, Plan and Traces leave a stage inexact.
	in, p := combPeacock(t)
	props := core.NoBlackhole | core.RelaxedLoopFreedom
	for _, check := range []func(*core.Instance, *core.Plan, core.Property, Options) *Report{Plan, Traces} {
		serial := check(in, p, props, Options{Budget: 2, Workers: 1})
		if serial.Rounds[1].Exact {
			t.Fatalf("teeth round %+v decided within a budget of 2", serial.Rounds[1])
		}
		for _, workers := range []int{2, 4, 8} {
			reportsEqual(t, serial, check(in, p, props, Options{Budget: 2, Workers: workers}))
		}
	}
}

func mustWayUp(t *testing.T, in *core.Instance) *core.Plan {
	t.Helper()
	s, err := core.WayUp(in)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBatchMatchesIndividualSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var tasks []Task
	for len(tasks) < 24 {
		ti := topo.RandomTwoPath(rng, 4+rng.Intn(10), false)
		in := core.MustInstance(ti.Old, ti.New, 0)
		if in.NumPending() == 0 {
			continue
		}
		p, err := core.Peacock(in)
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks,
			Task{Instance: in, Plan: core.OneShot(in), Props: core.NoBlackhole | core.RelaxedLoopFreedom},
			Task{Instance: in, Plan: p, Props: core.NoBlackhole | core.RelaxedLoopFreedom})
	}
	opts := Options{}
	batched := Batch(tasks, opts)
	if len(batched) != len(tasks) {
		t.Fatalf("Batch returned %d reports for %d tasks", len(batched), len(tasks))
	}
	for i, task := range tasks {
		solo := Plan(task.Instance, task.Plan, task.Props, opts)
		reportsEqual(t, solo, batched[i])
		if batched[i].Algorithm != task.Plan.Algorithm {
			t.Fatalf("report %d algorithm %q, want %q", i, batched[i].Algorithm, task.Plan.Algorithm)
		}
	}
}

func TestBatchEmpty(t *testing.T) {
	if got := Batch(nil, Options{}); len(got) != 0 {
		t.Fatalf("Batch(nil) = %v", got)
	}
}
