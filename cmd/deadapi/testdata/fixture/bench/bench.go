// Package bench may name what the rules keep from the rest of the tree.
package bench

import (
	"fixture/internal/core"
	"fixture/internal/explore"
	"fixture/internal/switchsim"
	"fixture/internal/synth"
	"fixture/internal/verify"
)

// Run names the round schedule and the loop shim.
func Run() (*core.Schedule, switchsim.Config) {
	p, _ := core.ScheduleByName(nil, "", 0)
	return core.PlanFromSchedule(p), switchsim.Config{Loops: switchsim.NewLoopGroup()}
}

// Seeds sets the Seed fields that have no effect outside bench/.
func Seeds() (verify.Options, explore.Options, synth.Options) {
	return verify.Options{Seed: 1}, explore.Options{Seed: 1}, synth.Options{Seed: 1}
}
