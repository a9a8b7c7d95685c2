package switchsim

import (
	"context"
	"net"
	"slices"
	"testing"
	"time"

	"tsu/internal/core"
	"tsu/internal/netem"
	"tsu/internal/ofconn"
	"tsu/internal/openflow"
	"tsu/internal/planwire"
	"tsu/internal/topo"
)

// queryBed is one switch on a live control connection whose controller
// end the test drives: it writes messages and reads the switch's state
// reports, and every other message the switch sends.
type queryBed struct {
	sw      *Switch
	nc      net.Conn // under conn: for frames the codec does not build
	conn    *ofconn.Conn
	reports chan *planwire.StateReport
	replies chan openflow.Message // closed once the switch hangs up
}

func newQueryBed(t *testing.T, cfg Config) *queryBed {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan *ofconn.Conn, 1)
	var nc net.Conn
	go func() {
		defer close(accepted)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		conn := ofconn.New(c)
		if _, err := ofconn.HandshakeController(conn); err != nil {
			conn.Close()
			return
		}
		nc = c
		accepted <- conn
	}()
	sw, err := NewSwitch(NewFabric(topo.Fig1()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if err := sw.Connect(ctx, ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sw.Stop)
	conn := <-accepted
	if conn == nil {
		t.Fatal("controller-side handshake failed")
	}
	t.Cleanup(func() { conn.Close() })
	// Room for more answers than any test asks for: the reader never
	// blocks, and drops replies past 64 that no test reads.
	b := &queryBed{sw: sw, nc: nc, conn: conn, reports: make(chan *planwire.StateReport, 8), replies: make(chan openflow.Message, 64)}
	go func() {
		defer close(b.replies)
		for {
			m, err := conn.ReadMessage()
			if err != nil {
				return
			}
			if v, ok := m.(*openflow.Vendor); ok && planwire.IsStateReport(v.Data) {
				if r, err := planwire.DecodeStateReport(v.Data); err == nil {
					b.reports <- r
				}
				continue
			}
			select {
			case b.replies <- m:
			default: // unread by this test
			}
		}
	}()
	return b
}

// next returns the switch's next message other than a state report,
// or nil once the switch has hung up.
func (b *queryBed) next(t *testing.T) openflow.Message {
	t.Helper()
	select {
	case m := <-b.replies:
		return m
	case <-time.After(10 * time.Second):
		t.Fatal("the switch sent nothing")
		return nil
	}
}

// send writes one message on the controller end.
func (b *queryBed) send(t *testing.T, m openflow.Message) {
	t.Helper()
	if _, err := b.conn.Send(m); err != nil {
		t.Fatal(err)
	}
}

// query asks the switch about job's flow ip and returns its answer.
func (b *queryBed) query(t *testing.T, job int, ip string) *planwire.StateReport {
	t.Helper()
	b.send(t, &openflow.Vendor{Vendor: planwire.VendorID, Data: (&planwire.StateQuery{Job: job, NWDst: nwDst(ip)}).Encode()})
	select {
	case r := <-b.reports:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("no state report")
		return nil
	}
}

// TestStateQueryHaltsAgent: a query stops the job's plan agent. The
// switch's root node, still installing when the query arrives,
// finishes before the answer goes out; the node whose last in-edge ack
// arrives after the query never installs, and the agent's completed set
// stays what the answer said.
func TestStateQueryHaltsAgent(t *testing.T) {
	const sw, peer = 7, 1
	b := newQueryBed(t, Config{Node: sw, InstallLatency: netem.Fixed(20 * time.Millisecond)})
	push, err := planwire.EncodePush(&planwire.Push{
		Job:    1,
		Switch: sw,
		Mods: []*openflow.FlowMod{
			fm(openflow.FlowAdd, "10.0.0.9", 100, 1),
			fm(openflow.FlowAdd, "10.0.0.2", 100, 1),
		},
	}, core.EncodePlan(&core.Plan{Nodes: []core.PlanNode{
		{Switch: sw},
		{Switch: peer},
		{Switch: sw, Deps: []int{1}},
	}}))
	if err != nil {
		t.Fatal(err)
	}
	b.send(t, &openflow.Vendor{Vendor: planwire.VendorID, Data: push})

	r := b.query(t, 1, "10.0.0.2")
	if !slices.Equal(r.AgentDone, []int{0}) || len(r.Rules) != 0 {
		t.Fatalf("answer = %+v, want the in-flight root done and no rule for the flow", r)
	}
	if _, ok := b.sw.Table().Lookup(nwDst("10.0.0.9")); !ok {
		t.Fatal("the root node answered done but its rule is not installed")
	}

	// The last in-edge ack of node 2 arrives after the query.
	b.sw.agent.deliver(PeerAck{Job: 1, From: peer, FromNode: 1, ToNode: 2})
	// A second answer waits for every install under way, as the first did.
	if r := b.query(t, 1, "10.0.0.2"); !slices.Equal(r.AgentDone, []int{0}) || len(r.Rules) != 0 {
		t.Fatalf("answer after a late ack = %+v, want nothing more done", r)
	}
	if got := b.sw.agent.doneNodes(1); !slices.Equal(got, []int{0}) {
		t.Fatalf("doneNodes = %v after the query, want [0]", got)
	}
	if _, ok := b.sw.Table().Lookup(nwDst("10.0.0.2")); ok {
		t.Fatal("a node released after the query installed")
	}
}

// TestStateQueryAfterForgetting: a push forgets the acks buffered for
// jobs below its Oldest, whose push never came, and keeps the rest; a
// query about the pushed job still gets its AgentDone.
func TestStateQueryAfterForgetting(t *testing.T) {
	const sw, peer = 7, 1
	b := newQueryBed(t, Config{Node: sw})
	for _, job := range []int{1, 3} {
		b.sw.agent.deliver(PeerAck{Job: job, From: peer, FromNode: 0, ToNode: 1})
	}
	push, err := planwire.EncodePush(&planwire.Push{
		Job:    2,
		Oldest: 2,
		Switch: sw,
		Mods:   []*openflow.FlowMod{fm(openflow.FlowAdd, "10.0.0.2", 100, 1)},
	}, core.EncodePlan(&core.Plan{Nodes: []core.PlanNode{{Switch: sw}}}))
	if err != nil {
		t.Fatal(err)
	}
	b.send(t, &openflow.Vendor{Vendor: planwire.VendorID, Data: push})

	if r := b.query(t, 2, "10.0.0.2"); !slices.Equal(r.AgentDone, []int{0}) {
		t.Fatalf("answer = %+v, want the pushed job's node done", r)
	}
	b.sw.agent.mu.Lock()
	_, below := b.sw.agent.early[1]
	_, above := b.sw.agent.early[3]
	b.sw.agent.mu.Unlock()
	if below || !above {
		t.Fatalf("acks buffered for job 1 kept %v, for job 3 kept %v; want only job 3's", below, above)
	}
}

// TestStateQueryIsABarrier: a FlowMod written on the same connection
// before the query shows in the answer — also when the FlowMod is held
// back by a reorder delay.
func TestStateQueryIsABarrier(t *testing.T) {
	for name, faults := range map[string]Faults{
		"plain":     {},
		"reordered": {FlowModFaults: netem.Faults{ReorderProb: 1, ReorderDelay: netem.Fixed(50 * time.Millisecond)}},
	} {
		t.Run(name, func(t *testing.T) {
			b := newQueryBed(t, Config{Node: 7, Faults: faults})
			b.send(t, fm(openflow.FlowModify, "10.0.0.2", 100, 3))
			if r := b.query(t, 4, "10.0.0.2"); len(r.Rules) != 1 || r.Rules[0].Port != 3 {
				t.Fatalf("answer = %+v, want the rule written before the query (out port 3)", r)
			}
		})
	}
}

// TestStateQueryListsTaggedRules: the answer lists every rule that pins
// the flow's destination, in table order — a two-phase prepare's tagged
// rule, at its higher priority, before the flow's untagged rule, each
// with its port — and no rule for another destination; after a wipe it
// lists nothing.
func TestStateQueryListsTaggedRules(t *testing.T) {
	b := newQueryBed(t, Config{Node: 7})
	untagged := fm(openflow.FlowModify, "10.0.0.2", 100, 3)
	prepare := fm(openflow.FlowAdd, "10.0.0.2", 110, 2)
	prepare.Match.Wildcards &^= openflow.WildcardDLVLAN
	prepare.Match.DLVLAN = 2016
	for _, m := range []*openflow.FlowMod{untagged, prepare, fm(openflow.FlowModify, "10.0.0.9", 100, 1)} {
		b.send(t, m)
	}
	want := []planwire.Rule{
		{Match: prepare.Match, Port: 2, Tag: openflow.VLANNone},
		{Match: untagged.Match, Port: 3, Tag: openflow.VLANNone},
	}
	if r := b.query(t, 1, "10.0.0.2"); !slices.Equal(r.Rules, want) {
		t.Fatalf("rules = %+v, want %+v", r.Rules, want)
	}
	b.sw.Table().Wipe()
	if r := b.query(t, 1, "10.0.0.2"); len(r.Rules) != 0 {
		t.Fatalf("rules after a wipe = %+v, want none", r.Rules)
	}
}
