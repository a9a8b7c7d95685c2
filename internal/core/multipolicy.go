package core

import (
	"fmt"
	"sort"

	"tsu/internal/topo"
)

// JointUpdate schedules several policies together, the extension the
// paper points to ("more work on multiple policies", Dudycz et al.
// DSN'16 / Ludwig et al. SIGMETRICS'16). Flows are distinguished on the
// wire by their match keys, so rules of different policies never
// interact and each policy keeps its own scheduler's transient
// guarantee; the joint problem is about *round economy*: executing the
// per-flow rounds in a common barrier cadence and batching FlowMods so
// a switch is touched as few times as possible.
type JointUpdate struct {
	Instances []*Instance
	Plans     []*Plan // each flow's layered plan: its layers are its rounds
}

// FlowUpdate identifies one switch update of one flow within a joint
// round.
type FlowUpdate struct {
	Flow   int // index into Instances/Plans
	Switch topo.NodeID
}

// NewJointUpdate plans every instance with the provided scheduler (see
// Register / Lookup for dispatch by name) and keeps the plan's layered
// view. props == 0 selects the scheduler's default property set.
func NewJointUpdate(instances []*Instance, scheduler Scheduler, props Property) (*JointUpdate, error) {
	if len(instances) == 0 {
		return nil, fmt.Errorf("core: joint update needs at least one policy")
	}
	j := &JointUpdate{Instances: instances}
	for i, in := range instances {
		p, err := scheduler.Plan(in, props)
		if err != nil {
			return nil, fmt.Errorf("core: joint update: policy %d: %w", i, err)
		}
		j.Plans = append(j.Plans, p.LayeredView())
	}
	return j, nil
}

// NumRounds returns the joint (left-aligned) round count: the maximum
// per-flow round count, since independent flows share barrier rounds.
func (j *JointUpdate) NumRounds() int {
	n := 0
	for _, p := range j.Plans {
		n = max(n, p.Depth())
	}
	return n
}

// SequentialRounds returns the round count of the naive alternative
// that updates one policy after another: the sum of per-flow rounds.
func (j *JointUpdate) SequentialRounds() int {
	total := 0
	for _, p := range j.Plans {
		total += p.Depth()
	}
	return total
}

// Round returns the flow updates of joint round i (0-based,
// left-aligned: flow f contributes its round i when it has one),
// grouped by switch so the controller can batch FlowMods per switch.
// Switch keys iterate deterministically via sorted order of the
// returned slice.
func (j *JointUpdate) Round(i int) map[topo.NodeID][]FlowUpdate {
	out := make(map[topo.NodeID][]FlowUpdate)
	for f, p := range j.Plans {
		layers := p.Layers()
		if i >= len(layers) {
			continue
		}
		for _, v := range layers[i] {
			out[v] = append(out[v], FlowUpdate{Flow: f, Switch: v})
		}
	}
	return out
}

// SwitchTouches returns, per switch, the number of joint rounds in
// which the switch receives at least one FlowMod — the "can't touch
// this" economy metric: fewer touches mean fewer barrier exchanges and
// fewer rule-table churn windows per switch.
func (j *JointUpdate) SwitchTouches() map[topo.NodeID]int {
	touches := make(map[topo.NodeID]int)
	for i := 0; i < j.NumRounds(); i++ {
		for sw := range j.Round(i) {
			touches[sw]++
		}
	}
	return touches
}

// TotalFlowMods returns the total number of switch updates across all
// flows.
func (j *JointUpdate) TotalFlowMods() int {
	total := 0
	for _, p := range j.Plans {
		total += p.NumNodes()
	}
	return total
}

// SwitchTouch is one row of TouchSummary.
type SwitchTouch struct {
	Switch  topo.NodeID
	Touches int
}

// TouchSummary returns the switches sorted by descending touch count,
// ties by ascending switch ID — the table the multi-policy experiment
// prints.
func (j *JointUpdate) TouchSummary() []SwitchTouch {
	touches := j.SwitchTouches()
	out := make([]SwitchTouch, 0, len(touches))
	for sw, t := range touches {
		out = append(out, SwitchTouch{sw, t})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Touches != out[b].Touches {
			return out[a].Touches > out[b].Touches
		}
		return out[a].Switch < out[b].Switch
	})
	return out
}
