// Command fixture is the module the deadapi test runs the guard on.
package main

import (
	"fmt"

	"fixture/bench"
	"fixture/internal/client"
	"fixture/internal/core"
	"fixture/internal/explore"
	"fixture/internal/journal"
	"fixture/internal/lib"
	"fixture/internal/switchsim"
)

func main() {
	fmt.Println(lib.Used(), lib.Kept{})
	var j journal.Journal
	fmt.Println(j.Compact(nil), j.Close(), j.Replayed())
	var ps core.PlanScheduler
	p := &core.Plan{}
	fmt.Println(ps, p.IdealStates(), core.Rounds(p), explore.Explore(p), explore.PlanCounterexample(p))
	sw := &switchsim.Switch{}
	fmt.Println(client.New().Watch(), switchsim.Config{Loops: nil}, sw.Loops())
	fmt.Println(bench.Run())
}
