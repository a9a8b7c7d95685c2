package core_test

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"tsu/internal/core"
	"tsu/internal/topo"
	"tsu/internal/verify"
)

func TestLookupUnknownName(t *testing.T) {
	if _, err := core.Lookup("nope"); err == nil {
		t.Fatal("unknown scheduler name accepted")
	} else if !strings.Contains(err.Error(), "nope") {
		t.Fatalf("error %v does not name the unknown scheduler", err)
	}
	if _, err := core.PlanByName(core.MustInstance(topo.Path{1, 2}, topo.Path{1, 2}, 0), "nope", 0, false); err == nil {
		t.Fatal("PlanByName accepted an unknown name")
	}
}

func TestMustSchedulerPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustScheduler on unknown name did not panic")
		}
	}()
	core.MustScheduler("nope")
}

func TestNamesStableAndComplete(t *testing.T) {
	names := core.Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	for i := 0; i < 3; i++ {
		again := core.Names()
		if len(again) != len(names) {
			t.Fatalf("Names() unstable: %v vs %v", names, again)
		}
		for j := range names {
			if names[j] != again[j] {
				t.Fatalf("Names() unstable: %v vs %v", names, again)
			}
		}
	}
	want := []string{core.AlgoGreedySLF, core.AlgoOneShot, core.AlgoOptimal, core.AlgoPeacock, core.AlgoSequential, core.AlgoWayUp}
	for _, w := range want {
		found := false
		for _, n := range names {
			if n == w {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("built-in scheduler %q missing from Names() = %v", w, names)
		}
	}
}

func TestRegisterRejectsDuplicatesAndNil(t *testing.T) {
	for name, reg := range map[string]func(){
		"dup":   func() { core.Register(core.AlgoPeacock, core.SchedulerFunc(nil)) },
		"empty": func() { core.Register("", core.SchedulerFunc(nil)) },
		"nil":   func() { core.Register("fresh-name", nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s registration did not panic", name)
				}
			}()
			reg()
		}()
	}
}

func TestDefaultAlgorithm(t *testing.T) {
	withWP := core.MustInstance(topo.Path{1, 2, 3}, topo.Path{1, 2, 4, 3}, 2)
	if got := core.DefaultAlgorithm(withWP); got != core.AlgoWayUp {
		t.Fatalf("default with waypoint = %q", got)
	}
	noWP := core.MustInstance(topo.Path{1, 2, 3}, topo.Path{1, 3}, 0)
	if got := core.DefaultAlgorithm(noWP); got != core.AlgoPeacock {
		t.Fatalf("default without waypoint = %q", got)
	}
	s, err := core.PlanByName(withWP, "", 0, false)
	if err != nil || s.Algorithm != core.AlgoWayUp {
		t.Fatalf("PlanByName(\"\", false) = %v, %v", s, err)
	}
}

func TestSchedulerFuncApplicable(t *testing.T) {
	f := core.SchedulerFunc(func(in *core.Instance, _ core.Property) (*core.Plan, error) {
		return core.OneShot(in), nil
	})
	if !f.Applicable(nil) {
		t.Fatal("SchedulerFunc must apply everywhere")
	}
}

// TestRegistryOutputsVerify is the registry's contract test: every
// registered scheduler, run through the registry on the Figure 1
// instance and on a random fat-tree instance, produces a schedule that
// passes the verifier (checked against the schedule's own guarantees,
// in parallel).
func TestRegistryOutputsVerify(t *testing.T) {
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
	cases := map[string]*core.Instance{
		"fig1":    core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint),
		"fattree": ftInstance,
	}
	for caseName, in := range cases {
		for _, name := range core.Names() {
			t.Run(caseName+"/"+name, func(t *testing.T) {
				sched, err := core.Lookup(name)
				if err != nil {
					t.Fatal(err)
				}
				if !sched.Applicable(in) {
					t.Skipf("%s not applicable to %v", name, in)
				}
				s, err := sched.Plan(in, 0)
				if err != nil {
					t.Fatalf("%s failed on %v: %v", name, in, err)
				}
				if s.Algorithm != name {
					t.Fatalf("schedule reports algorithm %q, registered as %q", s.Algorithm, name)
				}
				if rep := verify.Plan(in, s, s.Guarantees, verify.Options{}); !rep.OK() {
					t.Fatalf("%s schedule failed verification: %v", name, rep)
				}
			})
		}
	}
}
