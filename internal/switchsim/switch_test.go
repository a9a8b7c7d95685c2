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

	"tsu/internal/ofconn"
	"tsu/internal/simclock"
	"tsu/internal/topo"
)

// childCountingCtx is a parent context that counts the contexts
// currently derived from it: context.WithCancel registers with a
// foreign parent through AfterFunc and calls the returned stop when the
// child is cancelled.
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
// child context must be released then — otherwise every reconnect of a
// long-lived switch leaves one more dead child registered on the
// caller's context.
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
		t.Fatalf("%d live child contexts after the control loop ended, want 0", n)
	}
	if err := sw.Connect(parent, ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if n := parent.children(); n != 1 {
		t.Fatalf("%d live child contexts after reconnecting, want 1 (the new loop's only)", n)
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

// TestStoppedSwitchSweepReleasesConnection: a clock timer cannot be
// stopped, so a stopped switch's last expiry sweep stays pending — on a
// virtual clock, until the simulation next steps. That sweep reads the
// connection at fire time instead of capturing it, and the ended loop
// clears the switch's own reference, so the dead connection (socket,
// read buffer, contexts) is collectable while the sweep still waits.
func TestStoppedSwitchSweepReleasesConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
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
		}
	}()

	sim := simclock.NewSim(time.Time{})
	g := topo.Fig1()
	sw, err := NewSwitch(NewFabric(g), Config{Node: g.Nodes()[0], Clock: sim})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Connect(context.Background(), ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	wp := func() weak.Pointer[ofconn.Conn] {
		sw.mu.Lock()
		defer sw.mu.Unlock()
		return weak.Make(sw.conn)
	}()
	sw.Stop()
	if n := sim.Pending(); n != 1 {
		t.Fatalf("%d timers pending after Stop, want 1 (the last sweep)", n)
	}
	for i := 0; i < 4 && wp.Value() != nil; i++ {
		runtime.GC()
	}
	if wp.Value() != nil {
		t.Fatal("a stopped switch with a sweep pending still holds its connection")
	}
	if n := sim.Pending(); n != 1 {
		t.Fatalf("%d timers pending, want the last sweep still armed", n)
	}
}
