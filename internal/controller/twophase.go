package controller

import (
	"fmt"

	"tsu/internal/core"
	"tsu/internal/openflow"
	"tsu/internal/topo"
)

// A two-phase update runs as a tagged two-phase commit —
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
// commit — plus the optional cleanup suffix. Its reverse is per-packet
// consistent too: restore the ingress's untagged rule, then delete the
// tagged rules, which no packet reaches once nothing is tagged. The
// job's rollback spec is marked per-packet (see verifyRollback). A
// prepare node's rule is rulePrepare (the tagged match, priority +10)
// and the commit's ruleCommit (set the tag, then output); each node's
// undo follows from its forward rule (undoRule): a prepare is undone by
// deleting its tagged rule.

// TwoPhaseTag is the VLAN id that marks the new policy version in
// two-phase updates.
const TwoPhaseTag uint16 = 2016

// twoPhaseAlgorithm names a two-phase job's plan — and its journaled
// admit record, by which a restart picks the two-phase mod builder.
const twoPhaseAlgorithm = "two-phase"

// twoPhaseJob builds the prepare→commit(→cleanup) plan without
// admitting anything.
func (e *Engine) twoPhaseJob(in *core.Instance, match openflow.Match, opts SubmitOptions) (*Job, error) {
	if match.Wildcards&openflow.WildcardDLVLAN == 0 {
		return nil, fmt.Errorf("controller: the flow match must not already pin a VLAN")
	}
	// Phase 1: tagged copies of the new policy at every new-path
	// switch except the ingress (the ingress tags-and-forwards in
	// phase 2; a tagged rule there would never match, since packets
	// arrive untagged). A two-hop new path has nothing to prepare;
	// Layered skips the empty round and the commit is the plan's only
	// layer.
	prepare := in.New[1 : len(in.New)-1]
	p := core.Layered(twoPhaseAlgorithm, 0, [][]topo.NodeID{prepare, {in.Src()}})
	return e.flowJob(&rollbackSpec{in: in, match: match, perPacket: true}, p, opts)
}
