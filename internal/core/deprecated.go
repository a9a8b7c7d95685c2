package core

// The round-schedule names below are kept only so that callers which
// still spell them compile; none has a code path of its own.

// Deprecated: a round schedule is a layered Plan (see Layered).
type Schedule = Plan

// Deprecated: use PlanByName, which this is with sparse unset.
func ScheduleByName(in *Instance, name string, props Property) (*Plan, error) {
	return PlanByName(in, name, props, false)
}

// Deprecated: schedulers return plans; this is the identity.
func PlanFromSchedule(p *Plan) *Plan { return p }
