// Package bench may name what the rules keep from the rest of the tree.
package bench

import (
	"fixture/internal/core"
	"fixture/internal/switchsim"
)

// Run names the round schedule and the loop shim.
func Run() (*core.Schedule, switchsim.Config) {
	p, _ := core.ScheduleByName(nil, "", 0)
	return core.PlanFromSchedule(p), switchsim.Config{Loops: switchsim.NewLoopGroup()}
}
