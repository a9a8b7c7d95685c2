package verify

import (
	"math/rand"
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

func TestSampledFallbackOnSafeHugeRound(t *testing.T) {
	// Peacock's bulk round on a large reversal instance is safe but far
	// too large for an exact subset search under a tiny budget: the
	// verifier must fall back to sampling and still pass.
	ti := topo.Reversal(40)
	in := core.MustInstance(ti.Old, ti.New, 0)
	s, err := core.Peacock(in)
	if err != nil {
		t.Fatal(err)
	}
	r := Plan(in, s, core.RelaxedLoopFreedom|core.NoBlackhole, Options{Budget: 32, Samples: 200, Seed: 1})
	if r.Exact() {
		t.Fatal("expected sampled verification with budget 32")
	}
	if !r.OK() {
		t.Fatalf("sampling rejected a correct schedule: %v", r)
	}
}

func TestInexactButViolatingRoundStillFails(t *testing.T) {
	// One-shot on a big reversal: whether the exact search finishes or
	// not, the violation must surface.
	ti := topo.Reversal(40)
	in := core.MustInstance(ti.Old, ti.New, 0)
	s := core.OneShot(in)
	r := Plan(in, s, core.RelaxedLoopFreedom|core.NoBlackhole, Options{Budget: 64, Samples: 500, Seed: 1})
	if r.OK() {
		t.Fatal("one-shot violation missed on reversal(40)")
	}
}

func TestSampleRoundFindsFullSubsetViolation(t *testing.T) {
	// Violation only in the full subset: old 1→2→3, new 1→4→3 with
	// round {1} on done {}: subset {1} drops at 4. Empty/full subsets
	// are always included in the sample.
	in := core.MustInstance(topo.Path{1, 2, 3}, topo.Path{1, 4, 3}, 0)
	rng := rand.New(rand.NewSource(2))
	cex := SampleRound(in, nil, []topo.NodeID{1}, core.NoBlackhole, 0, rng)
	if cex == nil || !cex.Violated.Has(core.NoBlackhole) {
		t.Fatalf("cex = %v, want blackhole", cex)
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
	if o.Budget != core.DefaultCheckBudget || o.Samples != 1024 {
		t.Fatalf("defaults = %+v", o)
	}
	if o.Workers < 1 {
		t.Fatalf("Workers default = %d", o.Workers)
	}
	o = Options{Budget: 5, Samples: 7, Workers: 3}.withDefaults()
	if o.Budget != 5 || o.Samples != 7 || o.Workers != 3 {
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
		if ra.Exact != rb.Exact || ra.Size != rb.Size || (ra.Violation == nil) != (rb.Violation == nil) {
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
// schedules, exact and sampled.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		ti := topo.RandomTwoPath(rng, 6+rng.Intn(24), true)
		in := core.MustInstance(ti.Old, ti.New, ti.Waypoint)
		props := core.NoBlackhole | core.WaypointEnforcement | core.RelaxedLoopFreedom
		for _, s := range []*core.Plan{core.OneShot(in), mustWayUp(t, in)} {
			// A small budget forces the sampling fallback on larger draws,
			// covering the chunked path too.
			opts := Options{Budget: 1 << 10, Samples: 300, Seed: int64(trial)}
			serial := Plan(in, s, props, Options{Budget: opts.Budget, Samples: opts.Samples, Seed: opts.Seed, Workers: 1})
			for _, workers := range []int{2, 4, 8} {
				par := Plan(in, s, props, Options{Budget: opts.Budget, Samples: opts.Samples, Seed: opts.Seed, Workers: workers})
				reportsEqual(t, serial, par)
			}
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
	opts := Options{Seed: 3}
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
