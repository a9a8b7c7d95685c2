package switchsim

import (
	"context"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"tsu/internal/ofconn"
	"tsu/internal/openflow"
	"tsu/internal/topo"
)

// fakeController accepts switch connections, runs the controller-side
// handshake, and records every FLOW_REMOVED per datapath — just enough
// controller for loop-group tests that need a live control channel.
type fakeController struct {
	addr string

	mu      sync.Mutex
	removed map[uint64]int
}

func newFakeController(t *testing.T, ctx context.Context) *fakeController {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		<-ctx.Done()
		ln.Close()
	}()
	fc := &fakeController{addr: ln.Addr().String(), removed: make(map[uint64]int)}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				conn := ofconn.New(nc)
				defer conn.Close()
				fr, err := ofconn.HandshakeController(conn)
				if err != nil {
					return
				}
				for {
					m, err := conn.ReadMessage()
					if err != nil {
						return
					}
					if _, ok := m.(*openflow.FlowRemoved); ok {
						fc.mu.Lock()
						fc.removed[fr.DatapathID]++
						fc.mu.Unlock()
					}
				}
			}()
		}
	}()
	return fc
}

func (fc *fakeController) removedCount(dpid uint64) int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.removed[dpid]
}

// TestLoopGroupCapsGoroutines connects a fleet twice — once on the
// classic goroutine-per-duty layout, once on a shared LoopGroup — and
// demands the group save at least two long-lived goroutines per switch
// (the expiry ticker and the context watcher).
func TestLoopGroupCapsGoroutines(t *testing.T) {
	g := topo.Grid(8, 8)
	n := g.NumNodes()

	connect := func(ctx context.Context, addr string, lg *LoopGroup) []*Switch {
		fabric := NewFabric(g)
		sws := make([]*Switch, 0, n)
		for _, node := range g.Nodes() {
			sw, err := NewSwitch(fabric, Config{Node: node, TimeoutUnit: 50 * time.Millisecond, Loops: lg})
			if err != nil {
				t.Fatal(err)
			}
			if err := sw.Connect(ctx, addr); err != nil {
				t.Fatal(err)
			}
			sws = append(sws, sw)
		}
		return sws
	}
	settle := func() int {
		// Give just-spawned goroutines a few scheduler turns to park.
		for i := 0; i < 50; i++ {
			runtime.Gosched()
		}
		time.Sleep(10 * time.Millisecond)
		return runtime.NumGoroutine()
	}

	ctx1, cancel1 := context.WithCancel(context.Background())
	fc1 := newFakeController(t, ctx1)
	base1 := settle()
	classic := connect(ctx1, fc1.addr, nil)
	classicG := settle() - base1
	for _, sw := range classic {
		sw.Stop()
	}
	cancel1()
	settle()

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	fc2 := newFakeController(t, ctx2)
	lg := NewLoopGroup(ctx2, nil, 4)
	base2 := settle()
	grouped := connect(ctx2, fc2.addr, lg)
	groupG := settle() - base2

	if lg.Members() != n {
		t.Fatalf("group members = %d, want %d", lg.Members(), n)
	}
	// Classic: 3 switch-side goroutines per switch (+1 fake-controller
	// reader). Group: 1 per switch (+1 reader), pool fixed. The saving
	// must be at least 2 per switch, minus slack for scheduler noise.
	if saved := classicG - groupG; saved < 2*n-8 {
		t.Fatalf("loop group saved only %d goroutines for %d switches (classic %d, grouped %d), want >= %d",
			saved, n, classicG, groupG, 2*n-8)
	}

	// The shared sweep still expires flows: a hard-timeout entry on one
	// member must surface as FLOW_REMOVED at the controller.
	sw := grouped[0]
	fme := fm(openflow.FlowAdd, "10.0.0.2", 100, 3)
	fme.HardTimeout = 1
	fme.Flags = openflow.FlagSendFlowRem
	if oferr := sw.Table().Apply(fme); oferr != nil {
		t.Fatalf("apply: %v", oferr)
	}
	deadline := time.Now().Add(5 * time.Second)
	for fc2.removedCount(sw.DatapathID()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("loop-group sweep never delivered FLOW_REMOVED")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Stop unregisters: the group must forget stopped switches.
	for _, sw := range grouped {
		sw.Stop()
	}
	deadline = time.Now().Add(5 * time.Second)
	for lg.Members() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("group still tracks %d members after Stop", lg.Members())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLoopGroupPopZeroesVacatedSlot pins that a popped event does not
// stay reachable through the heap slice's slack: the slot the pop
// vacates must be the zero value, or the event's switch and buffered
// connection live on until some later push overwrites it.
func TestLoopGroupPopZeroesVacatedSlot(t *testing.T) {
	g := &LoopGroup{} // no loops started: only the heap is exercised
	sw := &Switch{}
	base := time.Unix(0, 0)
	for i := 3; i > 0; i-- {
		g.pushLocked(groupEvent{at: base.Add(time.Duration(i) * time.Second), sweep: true, sw: sw})
	}
	for want := 1; len(g.heap) > 0; want++ {
		ev := g.popLocked()
		if !ev.at.Equal(base.Add(time.Duration(want) * time.Second)) {
			t.Fatalf("pop %d returned the event at %v", want, ev.at)
		}
		if slack := g.heap[:len(g.heap)+1][len(g.heap)]; slack != (groupEvent{}) {
			t.Fatalf("after pop %d the vacated slot still holds %+v", want, slack)
		}
	}
}
