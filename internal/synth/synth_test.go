package synth

import (
	"errors"
	"math/rand"
	"testing"

	"tsu/internal/core"
	"tsu/internal/topo"
	"tsu/internal/verify"
)

func fig1(t testing.TB) *core.Instance {
	t.Helper()
	return core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
}

func fromTwoPath(t testing.TB, ti topo.TwoPathInstance) *core.Instance {
	t.Helper()
	in, err := core.NewInstance(ti.Old, ti.New, ti.Waypoint)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func fatTreeInstance(t testing.TB, k int, seed int64) *core.Instance {
	t.Helper()
	g := topo.FatTree(k)
	ti, err := topo.RandomFatTreePolicy(rand.New(rand.NewSource(seed)), g)
	if err != nil {
		t.Fatal(err)
	}
	return fromTwoPath(t, ti)
}

// TestSynthesizedPlansVerifyClean is the property test of the CEGIS
// loop: every synthesized plan's full ideal space must verify clean
// for its guarantees, decided by the verifier's exact search.
func TestSynthesizedPlansVerifyClean(t *testing.T) {
	cases := []struct {
		name string
		in   *core.Instance
	}{
		{"fig1", fig1(t)},
		{"reversal8", fromTwoPath(t, topo.Reversal(8))},
		{"staircase9", fromTwoPath(t, topo.Staircase(9))},
		{"nested9", fromTwoPath(t, topo.Nested(9))},
		{"comb4x3", fromTwoPath(t, topo.Comb(4, 3))},
		{"comb6x4", fromTwoPath(t, topo.Comb(6, 4))},
		{"fattree4", fatTreeInstance(t, 4, 1)},
		{"fattree8", fatTreeInstance(t, 8, 2)},
		{"comb12x8", fromTwoPath(t, topo.Comb(12, 8))},
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ti := topo.RandomTwoPath(rng, 10, seed%2 == 0)
		cases = append(cases, struct {
			name string
			in   *core.Instance
		}{"random10", fromTwoPath(t, ti)})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, tr, err := Plan(tc.in, 0, Options{})
			if err != nil {
				t.Fatalf("Plan: %v", err)
			}
			if err := plan.Validate(tc.in); err != nil {
				t.Fatalf("synthesized plan invalid: %v", err)
			}
			if plan.Algorithm != core.AlgoSynth {
				t.Fatalf("plan algorithm = %q, want %q", plan.Algorithm, core.AlgoSynth)
			}
			rep := verify.Plan(tc.in, plan, plan.Guarantees, verify.Options{})
			if !rep.OK() {
				t.Fatalf("synthesized plan unsafe (%s): %v", tr, rep.FirstViolation())
			}
			// Ideal spaces that fit the exhaustive budget must be
			// decided.
			if plan.NumNodes() <= 18 && !rep.Exact() {
				t.Fatalf("plan with %d nodes verified inexactly", plan.NumNodes())
			}
		})
	}
}

// TestSynthDepthDominatesHeuristics checks the acceptance bar: on
// Fig.1, a fat-tree policy and Comb(12,8), the synthesized plan's
// depth never exceeds any registered heuristic's plan depth for the
// same guarantees, and beats at least one of them strictly.
func TestSynthDepthDominatesHeuristics(t *testing.T) {
	instances := []struct {
		name string
		in   *core.Instance
	}{
		{"fig1", fig1(t)},
		{"fattree8", fatTreeInstance(t, 8, 2)},
		{"comb12x8", fromTwoPath(t, topo.Comb(12, 8))},
	}
	strictly := false
	for _, tc := range instances {
		rep, err := Compare(tc.in, Options{})
		if err != nil {
			t.Fatalf("%s: Compare: %v", tc.name, err)
		}
		if len(rep.Rows) == 0 {
			t.Fatalf("%s: no comparable heuristics", tc.name)
		}
		for _, row := range rep.Rows {
			if row.DepthGap < 0 {
				t.Errorf("%s: synth depth %d exceeds %s depth %d (props %s)",
					tc.name, row.Synth.Depth, row.Algorithm, row.Heuristic.Depth, row.Guarantees)
			}
			if row.DepthGap > 0 {
				strictly = true
			}
		}
		t.Logf("%s:\n%s", tc.name, rep.Table())
	}
	if !strictly {
		t.Error("synthesized plans never strictly beat any heuristic's depth")
	}
}

// TestSynthDeterministic pins the transcript fingerprint per seed and
// checks that a second run reproduces it: synthesis is a function of
// (instance, props) alone, and Options.Seed has no effect — both seeds
// pin the same hash.
func TestSynthDeterministic(t *testing.T) {
	pinned := map[string]map[int64]string{
		"fig1":    {1: "521824190fbdb170", 7: "521824190fbdb170"},
		"comb4x3": {1: "045b5c7f972de7d4", 7: "045b5c7f972de7d4"},
	}
	instances := map[string]*core.Instance{
		"fig1":    fig1(t),
		"comb4x3": fromTwoPath(t, topo.Comb(4, 3)),
	}
	for name, in := range instances {
		for seed := range pinned[name] {
			var fps []string
			for run := 0; run < 2; run++ {
				_, tr, err := Plan(in, 0, Options{Seed: seed})
				if err != nil {
					t.Fatalf("%s seed %d run %d: %v", name, seed, run, err)
				}
				fps = append(fps, tr.Fingerprint())
			}
			if fps[0] != fps[1] {
				t.Fatalf("%s seed %d: fingerprint differs across runs: %s vs %s", name, seed, fps[0], fps[1])
			}
			if want := pinned[name][seed]; want != "" && fps[0] != want {
				t.Errorf("%s seed %d: fingerprint %s, pinned %s", name, seed, fps[0], want)
			}
			t.Logf("%s seed %d: %s", name, seed, fps[0])
		}
	}
}

// TestSynthBudgetError checks the structured budget overrun: the
// best-so-far plan must be a valid (if unverified) execution plan and
// the transcript must record exactly Budget refinements.
func TestSynthBudgetError(t *testing.T) {
	in := fig1(t)
	_, _, err := Synthesize(in, 0, Options{Budget: 1})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("Synthesize with budget 1: got %v, want *BudgetError", err)
	}
	if be.Best == nil {
		t.Fatal("BudgetError.Best is nil")
	}
	if err := be.Best.Validate(in); err != nil {
		t.Fatalf("best-so-far plan invalid: %v", err)
	}
	if be.Transcript == nil || len(be.Transcript.Steps) != 1 {
		t.Fatalf("transcript records %d steps, want 1", len(be.Transcript.Steps))
	}
}

// TestSynthRegistered checks the first-class scheduler surface: synth
// resolves through the registry, and both its layered view and its
// synthesized DAG verify clean.
func TestSynthRegistered(t *testing.T) {
	in := fig1(t)
	found := false
	for _, name := range core.Names() {
		if name == core.AlgoSynth {
			found = true
		}
	}
	if !found {
		t.Fatalf("%q not in registry: %v", core.AlgoSynth, core.Names())
	}
	s, err := core.PlanByName(in, core.AlgoSynth, 0, false)
	if err != nil {
		t.Fatalf("PlanByName: %v", err)
	}
	if s.Guarantees == 0 {
		t.Fatal("synth schedule guarantees nothing")
	}
	if rep := verify.Plan(in, s, s.Guarantees, verify.Options{}); !rep.OK() {
		t.Fatalf("synth schedule unsafe: %v", rep.FirstViolation())
	}
	p, err := core.PlanByName(in, core.AlgoSynth, 0, true)
	if err != nil {
		t.Fatalf("PlanByName sparse: %v", err)
	}
	if rep := verify.Plan(in, p, p.Guarantees, verify.Options{}); !rep.OK() {
		t.Fatalf("synth sparse plan unsafe: %v", rep.FirstViolation())
	}
}

// TestCompareReport sanity-checks the gap table on Fig.1.
func TestCompareReport(t *testing.T) {
	rep, err := Compare(fig1(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, row := range rep.Rows {
		seen[row.Algorithm] = true
		if row.Synth.Nodes != row.Heuristic.Nodes {
			t.Errorf("%s: node counts differ: %d vs %d", row.Algorithm, row.Synth.Nodes, row.Heuristic.Nodes)
		}
		if row.DepthGap != row.Heuristic.Depth-row.Synth.Depth {
			t.Errorf("%s: inconsistent depth gap", row.Algorithm)
		}
	}
	for _, want := range []string{core.AlgoPeacock, core.AlgoWayUp, core.AlgoGreedySLF} {
		if !seen[want] {
			t.Errorf("gap table misses %s (rows: %v)", want, seen)
		}
	}
	if tbl := rep.Table(); len(tbl) == 0 {
		t.Error("empty table rendering")
	}
}
