package switchsim

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"tsu/internal/core"
	"tsu/internal/ofconn"
	"tsu/internal/openflow"
	"tsu/internal/planwire"
	"tsu/internal/topo"
)

// childCountingCtx is a parent context that counts what is currently
// registered on it: context.AfterFunc and context.WithCancel register
// with a foreign parent through its AfterFunc method and call the
// returned stop when the callback is stopped or the child cancelled.
type childCountingCtx struct {
	done chan struct{}

	mu   sync.Mutex
	live int
}

func (c *childCountingCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *childCountingCtx) Done() <-chan struct{}       { return c.done }
func (c *childCountingCtx) Value(any) any               { return nil }

func (c *childCountingCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

func (c *childCountingCtx) AfterFunc(func()) (stop func() bool) {
	c.mu.Lock()
	c.live++
	c.mu.Unlock()
	return func() bool {
		c.mu.Lock()
		c.live--
		c.mu.Unlock()
		return true
	}
}

func (c *childCountingCtx) children() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live
}

// TestReconnectReleasesPreviousLoopContext: when the controller drops
// the connection the control loop ends without Stop, and the loop's
// close-on-cancel callback must be unregistered from the caller's
// context then — otherwise every reconnect of a long-lived switch
// leaves one more dead entry registered there.
func TestReconnectReleasesPreviousLoopContext(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// The controller hangs up on the first connection right after the
	// handshake and keeps every later one.
	go func() {
		for first := true; ; first = false {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			conn := ofconn.New(nc)
			if _, err := ofconn.HandshakeController(conn); err != nil || first {
				conn.Close()
				continue
			}
			defer conn.Close()
		}
	}()

	g := topo.Fig1()
	sw, err := NewSwitch(NewFabric(g), Config{Node: g.Nodes()[0]})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Stop()
	parent := &childCountingCtx{done: make(chan struct{})}

	if err := sw.Connect(parent, ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); sw.Connected(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("switch still connected after the controller hung up")
		}
	}
	if n := parent.children(); n != 0 {
		t.Fatalf("%d callbacks live on the caller's context after the control loop ended, want 0", n)
	}
	if err := sw.Connect(parent, ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if n := parent.children(); n != 1 {
		t.Fatalf("%d callbacks live on the caller's context after reconnecting, want 1 (the new loop's only)", n)
	}
}

// TestFeaturesPortOrder: a switch's FEATURES_REPLY lists its ports in
// PortNo order — its neighbors ascending from port 1, then its hosts in
// insertion order — and the same list on every connect.
func TestFeaturesPortOrder(t *testing.T) {
	g := topo.NewGraph()
	for n := topo.NodeID(7); n >= 2; n-- {
		if err := g.AddLink(1, n); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range []string{"hb", "ha"} {
		if err := g.AddHost(topo.Host{Name: h, Attach: 1}); err != nil {
			t.Fatal(err)
		}
	}
	sw, err := NewSwitch(NewFabric(g), Config{Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	first, second := sw.features(), sw.features()
	if !reflect.DeepEqual(first.Ports, second.Ports) {
		t.Fatalf("two FEATURES_REPLYs differ:\n%+v\n%+v", first.Ports, second.Ports)
	}
	var got []string
	for i, p := range first.Ports {
		if p.PortNo != uint16(i+1) {
			t.Fatalf("port %d of the reply has PortNo %d", i, p.PortNo)
		}
		got = append(got, fmt.Sprintf("%s>%d", p.Name, p.Peer))
	}
	want := []string{"s1-eth1>2", "s1-eth2>3", "s1-eth3>4", "s1-eth4>5", "s1-eth5>6", "s1-eth6>7", "s1-hb>0", "s1-ha>0"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ports %v, want %v", got, want)
	}
}

// TestStoppedSwitchReleasesConnection: the ended loop clears the
// switch's own reference, so a stopped switch's dead connection
// (socket, read buffer, contexts) is collectable.
func TestStoppedSwitchReleasesConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	handshaked := make(chan struct{}, 1)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			conn := ofconn.New(nc)
			if _, err := ofconn.HandshakeController(conn); err != nil {
				conn.Close()
				continue
			}
			defer conn.Close()
			handshaked <- struct{}{}
		}
	}()

	g := topo.Fig1()
	sw, err := NewSwitch(NewFabric(g), Config{Node: g.Nodes()[0]})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Connect(context.Background(), ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-handshaked:
	case <-time.After(10 * time.Second):
		t.Fatal("the handshake never completed")
	}
	wp := func() weak.Pointer[ofconn.Conn] {
		sw.mu.Lock()
		defer sw.mu.Unlock()
		return weak.Make(sw.conn)
	}()
	sw.Stop()
	for i := 0; i < 4 && wp.Value() != nil; i++ {
		runtime.GC()
	}
	if wp.Value() != nil {
		t.Fatal("a stopped switch still holds its connection")
	}
}

// TestSwitchAnswersUnsupportedType: a message type the switch does not
// speak — the SET_CONFIG and GET_CONFIG_REQUEST a controller such as
// Ryu sends on connect — is answered with BAD_REQUEST/BAD_TYPE and its
// xid, and the connection stays up: a barrier behind them is answered.
func TestSwitchAnswersUnsupportedType(t *testing.T) {
	b := newQueryBed(t, Config{Node: 7})
	frames := []byte{
		1, 9, 0, 12, 0, 0, 0, 42, 0, 0, 0xff, 0xe5, // SET_CONFIG, xid 42
		1, 7, 0, 8, 0, 0, 0, 43, // GET_CONFIG_REQUEST, xid 43
	}
	if _, err := b.nc.Write(frames); err != nil {
		t.Fatal(err)
	}
	barrier := &openflow.BarrierRequest{}
	barrier.SetXid(44)
	if err := b.conn.WriteMessage(barrier); err != nil {
		t.Fatal(err)
	}
	for _, xid := range []uint32{42, 43} {
		m := b.next(t)
		if e, ok := m.(*openflow.Error); !ok || e.ErrType != openflow.ErrTypeBadRequest || e.Code != openflow.ErrCodeBadType || e.Xid() != xid {
			t.Fatalf("answer %#v, want BAD_REQUEST/BAD_TYPE with xid %d", m, xid)
		}
	}
	if m, ok := b.next(t).(*openflow.BarrierReply); !ok || m.Xid() != 44 {
		t.Fatalf("answer %#v, want the barrier reply with xid 44", m)
	}
}

// TestFlowModTimeoutRefused: the table never expires a rule and never
// reports a removal, so a FlowMod asking for a timeout or for
// FLOW_REMOVED installs nothing — on the control channel, where it is
// answered with FLOW_MOD_FAILED/UNSUPPORTED and its xid, and in a
// pushed plan, whose node then stalls.
func TestFlowModTimeoutRefused(t *testing.T) {
	for name, set := range map[string]func(*openflow.FlowMod){
		"idle":         func(f *openflow.FlowMod) { f.IdleTimeout = 5 },
		"hard":         func(f *openflow.FlowMod) { f.HardTimeout = 5 },
		"flow-removed": func(f *openflow.FlowMod) { f.Flags = openflow.FlagSendFlowRem },
	} {
		mod := func() *openflow.FlowMod {
			f := fm(openflow.FlowAdd, "10.0.0.2", 100, 3)
			set(f)
			return f
		}
		t.Run("control/"+name, func(t *testing.T) {
			b := newQueryBed(t, Config{Node: 7})
			f := mod()
			f.SetXid(9)
			barrier := &openflow.BarrierRequest{}
			barrier.SetXid(10)
			for _, m := range []openflow.Message{f, barrier} {
				if err := b.conn.WriteMessage(m); err != nil {
					t.Fatal(err)
				}
			}
			m := b.next(t)
			if e, ok := m.(*openflow.Error); !ok || e.ErrType != openflow.ErrTypeFlowModFail || e.Code != openflow.ErrCodeUnsupported || e.Xid() != 9 {
				t.Fatalf("answer %#v, want FLOW_MOD_FAILED/UNSUPPORTED with xid 9", m)
			}
			if r := b.query(t, 1, "10.0.0.2"); len(r.Rules) != 0 {
				t.Fatal("the refused rule is installed")
			}
		})
		t.Run("agent/"+name, func(t *testing.T) {
			b := newQueryBed(t, Config{Node: 7})
			push, err := planwire.EncodePush(&planwire.Push{
				Job:    1,
				Switch: 7,
				Mods:   []*openflow.FlowMod{mod()},
			}, core.EncodePlan(&core.Plan{Nodes: []core.PlanNode{{Switch: 7}}}))
			if err != nil {
				t.Fatal(err)
			}
			b.send(t, &openflow.Vendor{Vendor: planwire.VendorID, Data: push})
			if r := b.query(t, 1, "10.0.0.2"); len(r.Rules) != 0 || len(r.AgentDone) != 0 {
				t.Fatalf("answer = %+v, want the node stalled and no rule", r)
			}
		})
	}
}

// TestHandshakeRejectedEndsLoop: Connect returns once dialed, so a
// controller that answers with something other than HELLO fails the
// handshake on the switch's goroutine. That ends the loop: Connected
// turns false and the connection's read buffer goes back to the pool.
// A keeper's redial then gets a working connection.
func TestHandshakeRejectedEndsLoop(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// The first connection gets an ECHO_REQUEST where HELLO belongs,
	// once the test holds the loop's handles; every later one a full
	// handshake.
	answer := make(chan struct{})
	handshaked := make(chan uint64, 1)
	go func() {
		for first := true; ; first = false {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			conn := ofconn.New(nc)
			if first {
				<-answer
				conn.Send(&openflow.EchoRequest{}) //nolint:errcheck // the switch hangs up either way
				defer conn.Close()
				continue
			}
			fr, err := ofconn.HandshakeController(conn)
			if err != nil {
				conn.Close()
				continue
			}
			defer conn.Close()
			handshaked <- fr.DatapathID
		}
	}()

	g := topo.Fig1()
	sw, err := NewSwitch(NewFabric(g), Config{Node: g.Nodes()[0]})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	if err := sw.Connect(ctx, ln.Addr().String()); err != nil {
		t.Fatalf("Connect returned %v, want nil: the handshake is not its to fail", err)
	}
	sw.mu.Lock()
	conn, done := sw.conn, sw.done
	sw.mu.Unlock()
	close(answer)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the loop still runs after the controller answered without HELLO")
	}
	if sw.Connected() {
		t.Fatal("Connected() after a failed handshake")
	}
	if !reflect.ValueOf(conn).Elem().FieldByName("br").IsNil() {
		t.Fatal("the failed connection kept its read buffer")
	}

	if err := sw.Connect(ctx, ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	select {
	case dpid := <-handshaked:
		if dpid != sw.DatapathID() {
			t.Fatalf("redial handshaked as datapath %d, want %d", dpid, sw.DatapathID())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the redial never completed its handshake")
	}
	if !sw.Connected() {
		t.Fatal("not Connected() after the redial's handshake")
	}
}
