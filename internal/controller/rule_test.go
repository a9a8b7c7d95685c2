package controller

import (
	"bytes"
	"testing"

	"tsu/internal/core"
	"tsu/internal/ofconn"
	"tsu/internal/openflow"
	"tsu/internal/planwire"
	"tsu/internal/topo"
)

// The FlowMods a plan node was sent as when every node held one, built
// exactly as the engine built them then: the bytes the wire edge must
// still put on the wire for each node kind.

// refPathFlowMod is PathFlowMod's FlowMod with the port given.
func refPathFlowMod(port uint16, match openflow.Match, cmd openflow.FlowModCommand) *openflow.FlowMod {
	return &openflow.FlowMod{
		Match:    match,
		Command:  cmd,
		Priority: flowPriority,
		BufferID: openflow.NoBuffer,
		OutPort:  openflow.PortNone,
		Actions:  []openflow.Action{openflow.ActionOutput{Port: port}},
	}
}

// refHostFlowMod delivers the flow to host at its switch.
func refHostFlowMod(c *Controller, node topo.NodeID, host string, match openflow.Match) *openflow.FlowMod {
	port, ok := c.ports.HostPort(node, host)
	if !ok {
		panic("host not attached")
	}
	return refPathFlowMod(port, match, openflow.FlowAdd)
}

// refDeleteFlowMod removes the flow's rule.
func refDeleteFlowMod(match openflow.Match) *openflow.FlowMod {
	return &openflow.FlowMod{
		Match:    match,
		Command:  openflow.FlowDelete,
		BufferID: openflow.NoBuffer,
		OutPort:  openflow.PortNone,
	}
}

// refTwoPhaseFlowMod is a two-phase update node's FlowMod: the commit at
// the ingress, the tagged prepare rule elsewhere.
func refTwoPhaseFlowMod(t *testing.T, c *Controller, in *core.Instance, node topo.NodeID, match openflow.Match) *openflow.FlowMod {
	t.Helper()
	succ, _ := in.NewSucc(node)
	if node == in.Src() {
		commit, err := c.PathFlowMod(node, succ, match, openflow.FlowModify)
		if err != nil {
			t.Fatal(err)
		}
		commit.Actions = append([]openflow.Action{openflow.ActionSetVLAN{VLAN: TwoPhaseTag}}, commit.Actions...)
		return commit
	}
	tagged := match
	tagged.Wildcards &^= openflow.WildcardDLVLAN
	tagged.DLVLAN = TwoPhaseTag
	fm, err := c.PathFlowMod(node, succ, tagged, openflow.FlowAdd)
	if err != nil {
		t.Fatal(err)
	}
	fm.Priority = flowPriority + 10
	return fm
}

// refUndoFlowMod reverses forward FlowMod fwd at node.
func refUndoFlowMod(t *testing.T, c *Controller, in *core.Instance, node topo.NodeID, match openflow.Match, fwd *openflow.FlowMod) *openflow.FlowMod {
	t.Helper()
	if fwd.Command == openflow.FlowAdd {
		return refDeleteFlowMod(fwd.Match)
	}
	if succ, ok := in.OldSucc(node); ok {
		fm, err := c.PathFlowMod(node, succ, match, openflow.FlowModify)
		if err != nil {
			t.Fatal(err)
		}
		return fm
	}
	return refDeleteFlowMod(match)
}

// captureConn is a discardConn that keeps what is written to it.
type captureConn struct {
	*discardConn
	wrote bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error) { return c.wrote.Write(p) }

// TestRuleWireBytes pins the wire edge to the FlowMods every plan node
// was sent as when each held one, node kind by node kind — update
// modify, policy add (the host port included), two-phase prepare and
// commit, cleanup delete, and the undo of each: the bytes the walk's
// write puts on the wire ahead of the barrier are openflow.AppendTo of
// that FlowMod, and the node's rule reports as planwire.RuleOf of it.
func TestRuleWireBytes(t *testing.T) {
	c, err := New(Config{Topology: topo.Fig1()})
	if err != nil {
		t.Fatal(err)
	}
	e := c.engine
	conns := map[topo.NodeID]*captureConn{}
	for _, n := range topo.Fig1().Nodes() {
		conn := &captureConn{discardConn: newDiscardConn()}
		conns[n] = conn
		c.datapaths[uint64(n)] = &datapath{dpid: uint64(n), conn: ofconn.New(conn), sinks: map[uint32]barrierSink{}}
	}
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	match := flowMatch("10.0.0.2")

	// check writes node i of plan and holds its bytes and its rule to want.
	kinds := map[ruleKind]bool{}
	check := func(what string, plan *execPlan, i int, want *openflow.FlowMod) {
		t.Helper()
		kinds[plan.rules[i].kind] = true
		conn := conns[plan.sw(i)]
		conn.wrote.Reset()
		st := e.disp.acquire(plan.len(), walkSpec{plan: plan})
		defer e.disp.release(st)
		if _, err := e.write(st, i); err != nil {
			t.Fatalf("%s, node %d: %v", what, i, err)
		}
		wire := conn.wrote.Bytes()
		h, err := openflow.ParseHeader(wire)
		if err != nil || h.Type != openflow.TypeFlowMod {
			t.Fatalf("%s, node %d: the write starts with %v (%v), want a FLOW_MOD", what, i, h.Type, err)
		}
		want.SetXid(h.Xid)
		ref, err := openflow.AppendTo(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire[:h.Length], ref) {
			t.Fatalf("%s, node %d at s%d: the write path sent\n%x\nthe FlowMod is\n%x", what, i, plan.sw(i), wire[:h.Length], ref)
		}
		if got, want := plan.rules[i].reported(plan.match), planwire.RuleOf(want.Match, want.Actions); got != want {
			t.Fatalf("%s, node %d at s%d: rule reports as %+v, the FlowMod as %+v", what, i, plan.sw(i), got, want)
		}
	}

	for _, perPacket := range []bool{false, true} {
		spec := &rollbackSpec{in: in, match: match, perPacket: perPacket}
		p := core.Layered("wire", 0, [][]topo.NodeID{in.New[:len(in.New)-1]})
		plan, err := e.flowExecPlan(spec, p, len(p.Nodes), staleSwitches(in))
		if err != nil {
			t.Fatal(err)
		}
		undos := make([]nodeRule, plan.len())
		fwds := make([]*openflow.FlowMod, plan.len())
		for i := range plan.len() {
			node := plan.sw(i)
			switch {
			case plan.isCleanup(i):
				fwds[i] = refDeleteFlowMod(match)
			case perPacket:
				fwds[i] = refTwoPhaseFlowMod(t, c, in, node, match)
			default:
				succ, _ := in.NewSucc(node)
				if fwds[i], err = c.PathFlowMod(node, succ, match, openflow.FlowModify); err != nil {
					t.Fatal(err)
				}
			}
			check("forward", &plan, i, fwds[i])
			if undos[i], err = e.undoRule(spec, node, plan.rules[i]); err != nil {
				t.Fatal(err)
			}
		}
		// The undos, walked as runRollback walks them: one node each.
		undo := newExecPlan(&core.Plan{Nodes: plan.dag.Nodes}, match, undos, plan.len(), nil)
		for i := range undo.len() {
			check("undo", &undo, i, refUndoFlowMod(t, c, in, undo.sw(i), match, fwds[i]))
		}
	}

	// A policy install: an ADD toward each successor, and the host's port
	// at the destination.
	path := topo.Fig1NewPath
	rules, err := c.pathRules(path, "h2")
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Plan{Nodes: make([]core.PlanNode, len(path))}
	for i, n := range path {
		p.Nodes[i].Switch = n
	}
	policy := newExecPlan(p, match, rules, len(path), nil)
	for i := range path {
		if i+1 == len(path) {
			check("policy", &policy, i, refHostFlowMod(c, path[i], "h2", match))
			break
		}
		want, err := c.PathFlowMod(path[i], path[i+1], match, openflow.FlowAdd)
		if err != nil {
			t.Fatal(err)
		}
		check("policy", &policy, i, want)
	}

	for k := ruleModify; k <= ruleDeleteTagged; k++ {
		if !kinds[k] {
			t.Errorf("no node of rule kind %d was checked", k)
		}
	}
}
