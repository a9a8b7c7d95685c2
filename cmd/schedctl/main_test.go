package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"tsu/internal/core"
	"tsu/internal/synth"
	"tsu/internal/topo"
	"tsu/internal/verify"
)

// countedName is a heuristic that counts its runs: Peacock under a
// name of its own, registered in this test binary only.
const countedName = "counted-peacock"

var countedCalls int

func init() {
	core.Register(countedName, core.SchedulerFunc(func(in *core.Instance, _ core.Property) (*core.Plan, error) {
		countedCalls++
		return core.Peacock(in)
	}))
}

// calls returns how many times f ran the counted heuristic.
func calls(f func()) int {
	before := countedCalls
	f()
	return countedCalls - before
}

// TestHeuristicRunsOncePerRequest pins that every consumer of the
// registry runs a heuristic once per plan it asks for: PlanByName, the
// synthesizer's portfolio, Compare (once for its own row, once per
// portfolio run it makes) and the dry run here.
func TestHeuristicRunsOncePerRequest(t *testing.T) {
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, 0)
	for _, sparse := range []bool{false, true} {
		if n := calls(func() {
			if _, err := core.PlanByName(in, countedName, 0, sparse); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Fatalf("PlanByName(sparse=%t) ran the heuristic %d times, want 1", sparse, n)
		}
	}
	if n := calls(func() {
		if _, _, err := synth.Plan(in, 0, synth.Options{}); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("synth.Plan's portfolio ran the heuristic %d times, want 1", n)
	}
	var rep *synth.CompareReport
	n := calls(func() {
		var err error
		if rep, err = synth.Compare(in, synth.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	runs := map[core.Property]bool{}
	for _, row := range rep.Rows {
		runs[row.Guarantees] = true
	}
	if want := 1 + len(runs); n != want {
		t.Fatalf("Compare ran the heuristic %d times, want %d (its row + %d portfolio runs)", n, want, len(runs))
	}
	if n := calls(func() { dryRun(&bytes.Buffer{}, in, countedName, 0, true, false) }); n != 1 {
		t.Fatalf("dry run ran the heuristic %d times, want 1", n)
	}
}

// TestDryRunVerifiesExecutedPlan pins that -plan sparse verifies the
// sparse DAG -submit would execute, not the layered plan its rounds
// are printed from.
func TestDryRunVerifiesExecutedPlan(t *testing.T) {
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, 0)
	for _, sparse := range []bool{false, true} {
		plan, err := core.PlanByName(in, core.AlgoPeacock, 0, sparse)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Sparse != sparse {
			t.Fatalf("sparse=%t: plan.Sparse = %t", sparse, plan.Sparse)
		}
		var out bytes.Buffer
		dryRun(&out, in, core.AlgoPeacock, 0, sparse, false)
		want := verify.Plan(in, plan, plan.Guarantees, verify.Options{}).String()
		if !strings.Contains(out.String(), want) {
			t.Fatalf("sparse=%t: dry run\n%s\ndoes not verify the executed plan (%s)", sparse, out.String(), want)
		}
	}
}

// TestDryRunDecentralizedMessages pins the per-switch message counts a
// decentralized dry run prints for Fig. 1's sparse Peacock plan: two
// control messages per switch (push and report) and one peer ack per
// out-edge to another switch's node.
func TestDryRunDecentralizedMessages(t *testing.T) {
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	var out bytes.Buffer
	dryRun(&out, in, core.AlgoPeacock, 0, true, true)
	var got []string
	for _, line := range strings.Split(out.String(), "\n") {
		if line = strings.TrimSpace(line); strings.HasPrefix(line, "messages ") {
			got = append(got, line)
		}
	}
	want := []string{
		"messages sw=1: ctrl=2 peer=0",
		"messages sw=3: ctrl=2 peer=0",
		"messages sw=7: ctrl=2 peer=1",
		"messages sw=8: ctrl=2 peer=1",
		"messages sw=9: ctrl=2 peer=1",
		"messages sw=10: ctrl=2 peer=1",
		"messages sw=11: ctrl=2 peer=1",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("decentralized dry run prints\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
