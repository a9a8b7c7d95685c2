// Waypointfirewall walks through the security story: a tenant's
// traffic must traverse a firewall at every instant, including while
// routes are being reconfigured. The example builds an update whose
// naive execution can bypass the firewall, exhibits a concrete
// violating interleaving found by the exact verifier, and then shows
// the WayUp schedule with its phase structure (and when waypoint
// enforcement and loop freedom conflict, how WayUp degrades).
//
//	go run ./examples/waypointfirewall
package main

import (
	"fmt"
	"log"

	"tsu/internal/core"
	"tsu/internal/topo"
	"tsu/internal/verify"
)

func main() {
	// Old route: s1 → s2 → s4(FW) → s6 → s8.
	// New route: s1 → s3 → s4(FW) → s5 → s7 → s8.
	// The firewall s4 stays on both routes; everything else changes.
	const firewall = 4
	in, err := core.NewInstance(
		topo.Path{1, 2, 4, 6, 8},
		topo.Path{1, 3, 4, 5, 7, 8},
		firewall,
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("policy change: %v\n", in)
	fmt.Printf("switches needing updates: %v\n\n", in.Pending())

	props := core.NoBlackhole | core.WaypointEnforcement

	// The naive one-shot update.
	oneShot := core.OneShot(in)
	report := verify.Plan(in, core.PlanFromSchedule(oneShot), props, verify.Options{})
	fmt.Println("one-shot:", report)
	if cex := report.FirstViolation(); cex != nil {
		fmt.Printf("  interleaving: switches %v updated first\n", in.StateNodes(cex.Updated))
		fmt.Printf("  packet walk:  %v — %s\n\n", cex.Walk, explain(cex, firewall))
	}

	// WayUp.
	sched, err := core.WayUp(in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("wayup:", sched)
	fmt.Println("      ", verify.Plan(in, core.PlanFromSchedule(sched), sched.Guarantees, verify.Options{}))

	// A harder instance: switch 2 sits before the firewall on the old
	// path but after it on the new one (the "dangerous" class) — WayUp
	// must hold it back until the source is re-routed.
	fmt.Println()
	hard := core.MustInstance(topo.Path{1, 2, 4, 6, 8}, topo.Path{1, 4, 2, 6, 8}, 4)
	fmt.Printf("dangerous-switch instance: %v\n", hard)
	hardSched, err := core.WayUp(hard)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("wayup:", hardSched)
	fmt.Println("      ", verify.Plan(hard, core.PlanFromSchedule(hardSched), hardSched.Guarantees, verify.Options{}))
	if hardSched.LoopFreedomCompromised {
		fmt.Println("       loop freedom was infeasible alongside waypoint enforcement (HotNets'14);")
		fmt.Println("       waypoint enforcement is preserved throughout")
	}

	// Joint feasibility, decided exactly. When the exact solver says
	// feasible but WayUp compromised, the heuristic's fixed phase order
	// missed a schedule the optimal search finds — run core.Optimal for
	// the minimal-round one.
	jointProps := core.NoBlackhole | core.WaypointEnforcement | core.RelaxedLoopFreedom
	feasible, err := core.Feasible(hard, jointProps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact solver: waypoint+loop-freedom jointly feasible? %v\n", feasible)
	if feasible && hardSched.LoopFreedomCompromised {
		opt, err := core.Optimal(hard, jointProps)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("optimal:", opt)
		fmt.Println("        ", verify.Plan(hard, core.PlanFromSchedule(opt), jointProps, verify.Options{}))
	}
}

func explain(cex *core.CounterExample, firewall topo.NodeID) string {
	switch {
	case cex.Violated.Has(core.WaypointEnforcement):
		return fmt.Sprintf("delivered WITHOUT crossing the firewall s%d", firewall)
	case cex.Violated.Has(core.NoBlackhole):
		return "dropped at a switch with no rule yet"
	default:
		return cex.Violated.String()
	}
}
