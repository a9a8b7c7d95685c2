package core_test

import (
	"fmt"

	"tsu/internal/core"
	"tsu/internal/topo"
	"tsu/internal/verify"
)

// ExampleWayUp schedules a waypoint-preserving update and verifies it.
func ExampleWayUp() {
	in, _ := core.NewInstance(
		topo.Path{1, 2, 3, 4, 5}, // old route, firewall at 3
		topo.Path{1, 6, 3, 7, 5}, // new route, same firewall
		3,
	)
	plan, _ := core.WayUp(in)
	fmt.Println(plan.Algorithm, plan.Layers())
	fmt.Println(verify.Plan(in, plan, plan.Guarantees, verify.Options{}).OK())
	// Output:
	// wayup [[6 7] [3] [1]]
	// true
}

// ExamplePeacock shows relaxed-loop-freedom scheduling collapsing an
// adversarial migration into three rounds.
func ExamplePeacock() {
	inst := topo.Reversal(16)
	in, _ := core.NewInstance(inst.Old, inst.New, 0)
	plan, _ := core.Peacock(in)
	fmt.Println(plan.Depth(), "rounds for", in.NumPending(), "switches")
	// Output:
	// 3 rounds for 15 switches
}

// ExampleOneShot demonstrates why naive updates are unsafe: the
// verifier exhibits a reachable transient state that loops.
func ExampleOneShot() {
	in, _ := core.NewInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 3, 2, 4}, 0)
	report := verify.Plan(in, core.OneShot(in), core.RelaxedLoopFreedom, verify.Options{})
	fmt.Println(report.OK())
	fmt.Println(report.FirstViolation().Violated)
	// Output:
	// false
	// RelaxedLoopFreedom
}

// ExampleOptimal finds the provably minimal round count for a small
// instance.
func ExampleOptimal() {
	in, _ := core.NewInstance(topo.Path{1, 2, 3, 4, 5}, topo.Path{1, 4, 3, 2, 5}, 0)
	plan, _ := core.Optimal(in, core.NoBlackhole|core.RelaxedLoopFreedom)
	fmt.Println(plan.Depth())
	// Output:
	// 3
}

// ExampleFeasible decides whether waypoint enforcement and loop
// freedom can be reconciled at all for an instance.
func ExampleFeasible() {
	in, _ := core.NewInstance(topo.Path{1, 2, 4, 6, 8}, topo.Path{1, 4, 2, 6, 8}, 4)
	ok, _ := core.Feasible(in, core.NoBlackhole|core.WaypointEnforcement|core.RelaxedLoopFreedom)
	fmt.Println(ok)
	// Output:
	// true
}
