package controller

import (
	"tsu/internal/openflow"
	"tsu/internal/planwire"
)

// ruleKind is what a plan node does to its switch's rule for the plan's
// flow. A MODIFY also inserts a missing rule (OF 1.0): on a
// new-path-only switch, or where a cleanup node deleted one.
type ruleKind uint8

const (
	ruleBarrier      ruleKind = iota // nothing: a bare barrier
	ruleModify                       // MODIFY the flow out of port
	ruleAdd                          // ADD the flow out of port (a policy install)
	rulePrepare                      // ADD the tagged flow out of port, above the untagged rule (two-phase)
	ruleCommit                       // MODIFY the flow to be tagged, then out of port (two-phase, at the ingress)
	ruleDelete                       // DELETE the flow's rule (cleanup, undo)
	ruleDeleteTagged                 // DELETE the tagged flow's rule (a prepare's undo)
)

// nodeRule is one plan node's rule change for the plan's flow: its kind
// and the port the flow leaves by (0 for a delete or a bare barrier).
type nodeRule struct {
	kind ruleKind
	port uint16
}

// deletes reports whether r removes a rule.
func (r nodeRule) deletes() bool { return r.kind == ruleDelete || r.kind == ruleDeleteTagged }

// matchOf is the match r programs for flow.
func (r nodeRule) matchOf(flow openflow.Match) openflow.Match {
	if r.kind == rulePrepare || r.kind == ruleDeleteTagged {
		flow.Wildcards &^= openflow.WildcardDLVLAN
		flow.DLVLAN = TwoPhaseTag
	}
	return flow
}

// reported is r as a switch reports its rule once r took effect: the
// match, the port a packet leaves by and its tag then. A delete's is
// its match alone, which holds while no rule has it.
func (r nodeRule) reported(flow openflow.Match) planwire.Rule {
	tag := openflow.VLANNone
	if r.kind == ruleCommit {
		tag = TwoPhaseTag
	}
	return planwire.Rule{Match: r.matchOf(flow), Port: r.port, Tag: tag}
}

// wireMod is the wire edge: a node's rule becomes a FlowMod here and
// nowhere else, only to be encoded. Its actions point into the wireMod
// itself, so a walk that keeps one in its pooled state encodes every
// install without allocating.
type wireMod struct {
	fm   openflow.FlowMod
	tag  openflow.ActionSetVLAN
	out  openflow.ActionOutput
	acts [2]openflow.Action // &tag, &out
}

// build makes m rule r's FlowMod for flow and returns it; it stays valid
// until m is built again. r must not be a bare barrier.
func (m *wireMod) build(r nodeRule, flow openflow.Match) *openflow.FlowMod {
	m.tag.VLAN, m.out.Port = TwoPhaseTag, r.port
	m.acts = [2]openflow.Action{&m.tag, &m.out}
	m.fm = openflow.FlowMod{
		Match:    r.matchOf(flow),
		Command:  openflow.FlowModify,
		Priority: flowPriority,
		BufferID: openflow.NoBuffer,
		OutPort:  openflow.PortNone,
		Actions:  m.acts[1:],
	}
	switch r.kind {
	case ruleAdd:
		m.fm.Command = openflow.FlowAdd
	case rulePrepare:
		m.fm.Command, m.fm.Priority = openflow.FlowAdd, flowPriority+10
	case ruleCommit:
		m.fm.Actions = m.acts[:]
	case ruleDelete, ruleDeleteTagged:
		m.fm.Command, m.fm.Priority, m.fm.Actions = openflow.FlowDelete, 0, nil
	}
	return &m.fm
}
