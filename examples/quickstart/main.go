// Quickstart: compute and verify a transiently consistent update
// schedule with the core library — no network involved.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"tsu/internal/core"
	"tsu/internal/topo"
	"tsu/internal/verify"
)

func main() {
	// A policy change: traffic moves from the old route to the new
	// route; both pass the waypoint (switch 3, say a firewall).
	old := topo.Path{1, 2, 3, 4, 5}
	new_ := topo.Path{1, 6, 3, 7, 5}
	instance, err := core.NewInstance(old, new_, 3)
	if err != nil {
		log.Fatal(err)
	}

	// One-shot (what a naive controller does): provably unsafe.
	oneShot, err := core.ScheduleByName(instance, core.AlgoOneShot, 0)
	if err != nil {
		log.Fatal(err)
	}
	report := verify.Plan(instance, core.PlanFromSchedule(oneShot),
		core.NoBlackhole|core.WaypointEnforcement|core.RelaxedLoopFreedom, verify.Options{})
	fmt.Println(report)
	if cex := report.FirstViolation(); cex != nil {
		fmt.Printf("  e.g. with switches %v already flipped the walk is %v\n",
			instance.StateNodes(cex.Updated), cex.Walk)
	}

	// WayUp: rounds separated by barriers, transiently secure. An empty
	// algorithm name picks the instance's default (wayup here — the
	// policy has a waypoint).
	schedule, err := core.ScheduleByName(instance, "", 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(schedule)
	report = verify.Plan(instance, core.PlanFromSchedule(schedule), schedule.Guarantees, verify.Options{})
	fmt.Println(report)

	// Peacock: relaxed loop freedom when there is no waypoint to guard.
	peacock, err := core.ScheduleByName(instance, core.AlgoPeacock, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(peacock)
	fmt.Println(verify.Plan(instance, core.PlanFromSchedule(peacock), peacock.Guarantees, verify.Options{}))
}
