package controller

import (
	"fmt"

	"tsu/internal/core"
	"tsu/internal/openflow"
	"tsu/internal/topo"
)

// SubmitTwoPhase enqueues the update as a tagged two-phase commit —
// the fallback HotNets'14 proposes for instances where waypoint
// enforcement and loop freedom cannot be reconciled by scheduling
// alone, and the strongest consistency available (per-packet
// consistency: every packet traverses exactly one policy, old or new):
//
//	Phase 1 (prepare): install the new policy's rules at every
//	  new-path switch, matching the flow *plus* a VLAN tag at higher
//	  priority. Untagged traffic is untouched. Barrier.
//
//	Phase 2 (commit): atomically rewrite the ingress switch's rule to
//	  tag packets and send them down the new path. From that moment
//	  every packet entering the network rides the tagged rules end to
//	  end; packets already in flight finish on the old rules. Barrier.
//
//	Phase 3 (optional, SubmitOptions.Cleanup): delete the stale
//	  untagged rules from old-path switches that are off the new path.
//
// The price relative to WayUp/Peacock is rule-table state (two rule
// versions coexist during the transition) and the tag header bits —
// the trade the update literature attributes to Reitblatt et al.'s
// two-phase mechanism.
//
// As a plan this is two layers — every prepare install, then the
// commit — plus the optional cleanup suffix. Two-phase jobs carry no
// rollback spec: their tagged mods have no reverse plan, so a mid-plan
// failure fails plain.
func (e *Engine) SubmitTwoPhase(in *core.Instance, match openflow.Match, tag uint16, opts SubmitOptions) (*Job, error) {
	job, err := e.twoPhaseJob(in, match, tag, opts)
	if err != nil {
		return nil, err
	}
	return e.enqueue(job)
}

// TwoPhaseTag is the VLAN id the REST layer uses to mark the new
// policy version in two-phase updates.
const TwoPhaseTag uint16 = 2016

// twoPhaseJob builds the prepare→commit(→cleanup) plan without
// admitting anything.
func (e *Engine) twoPhaseJob(in *core.Instance, match openflow.Match, tag uint16, opts SubmitOptions) (*Job, error) {
	if tag == openflow.VLANNone {
		return nil, fmt.Errorf("controller: tag 0x%04x is reserved for untagged traffic", openflow.VLANNone)
	}
	if match.Wildcards&openflow.WildcardDLVLAN == 0 {
		return nil, fmt.Errorf("controller: the flow match must not already pin a VLAN")
	}
	src := in.Src()

	tagged := match
	tagged.Wildcards &^= openflow.WildcardDLVLAN
	tagged.DLVLAN = tag

	// Phase 1: tagged copies of the new policy at every new-path
	// switch except the ingress (the ingress tags-and-forwards in
	// phase 2; a tagged rule there would never match, since packets
	// arrive untagged).
	prepare := in.New[1 : len(in.New)-1]
	var mods [][]*openflow.FlowMod
	for _, node := range prepare {
		succ, _ := in.NewSucc(node)
		fm, err := e.c.PathFlowMod(node, succ, tagged, openflow.FlowAdd)
		if err != nil {
			return nil, err
		}
		fm.Priority = flowPriority + 10
		mods = append(mods, []*openflow.FlowMod{fm})
	}

	// Phase 2: flip the ingress — tag, then forward toward the new
	// path's first hop.
	succ, ok := in.NewSucc(src)
	if !ok {
		return nil, fmt.Errorf("controller: source %d has no new-path successor", src)
	}
	commit, err := e.c.PathFlowMod(src, succ, match, openflow.FlowModify)
	if err != nil {
		return nil, err
	}
	commit.Actions = append([]openflow.Action{openflow.ActionSetVLAN{VLAN: tag}}, commit.Actions...)
	mods = append(mods, []*openflow.FlowMod{commit})

	// A two-hop new path has nothing to prepare; Layered skips the
	// empty round and the commit is the plan's only layer.
	p := core.Layered("two-phase", 0, [][]topo.NodeID{prepare, {src}})
	var cleanupAt []topo.NodeID
	if opts.Cleanup {
		cleanupAt = staleSwitches(in)
		for range cleanupAt {
			mods = append(mods, []*openflow.FlowMod{deleteFlowMod(match)})
		}
	}
	return newJob(newExecPlan(p, mods, len(p.Nodes), cleanupAt), opts, nil), nil
}
