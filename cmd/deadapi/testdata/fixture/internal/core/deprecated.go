package core

// Deprecated: a round schedule is a layered Plan.
type Schedule = Plan

// Deprecated: use PlanByName.
func ScheduleByName(in *Instance, name string, props Property) (*Plan, error) {
	return PlanByName(in, name, props, false)
}

// Deprecated: the identity.
func PlanFromSchedule(p *Plan) *Plan { return p }

// Rounds is logic of its own.
func Rounds(p *Plan) int { return len(p.Nodes) }
